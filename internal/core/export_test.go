package core

import "testing"

// ForceHashCollisions maps every construction-table state to one hash value
// until tb finishes, so each merge decision goes through the SameKey chain.
// tb must not run in parallel with other tests of this package.
func ForceHashCollisions(tb testing.TB) {
	collideHashes = true
	tb.Cleanup(func() { collideHashes = false })
}
