package bdd

import (
	"netrel/internal/frontier"
	"netrel/internal/xfloat"
)

// parentChunk is the number of parent nodes per deterministic expansion
// unit. Chunk boundaries depend only on the layer width, never on the
// worker count, so the merge order — and hence every xfloat sum — is the
// same for any parallelism degree.
const parentChunk = 256

// chunkEntry is one live child produced by a chunk, deduplicated within the
// chunk, in first-encounter order, with its merge-key hash.
type chunkEntry struct {
	hash  uint64
	state frontier.State
	p     xfloat.F
}

// chunkResult is a chunk's expansion output: its live children plus the
// probability mass it resolved into the 1-sink.
type chunkResult struct {
	entries []chunkEntry
	pc      xfloat.F
}

// expandChunk processes one contiguous slice of a layer's parent nodes.
// Because parents are contiguous and within-chunk dedup accumulates in
// encounter order, merging chunks in index order reproduces the exact
// left-to-right addition sequence of a sequential sweep over the layer.
// local is the caller's reusable dedup index.
func expandChunk(plan *frontier.Plan, l int, parents []node, sc *frontier.Scratch, scratch *frontier.State, local *frontier.StateIndex) chunkResult {
	var out chunkResult
	e := plan.EdgeAt(l)
	local.Reset()
	for i := range parents {
		n := &parents[i]
		for _, exists := range [2]bool{false, true} {
			w := 1 - e.P
			if exists {
				w = e.P
			}
			childP := n.p.MulFloat64(w)
			switch plan.Apply(l, &n.state, exists, false, sc, scratch) {
			case frontier.OneSink:
				out.pc = out.pc.Add(childP)
			case frontier.ZeroSink:
				// mass discarded
			case frontier.Live:
				h := scratch.Hash()
				if j := local.Lookup(h, scratch); j >= 0 {
					out.entries[j].p = out.entries[j].p.Add(childP)
				} else {
					st := scratch.Clone()
					local.Insert(h, st)
					out.entries = append(out.entries, chunkEntry{hash: h, state: st, p: childP})
				}
			}
		}
	}
	return out
}
