package frontier

// StatePool recycles State storage. The S2BDD construction creates and
// discards up to 2w states per layer, and reusing their slices removes the
// allocation churn from the hot loop. Construction also reuses its layer
// buffers (node tables, deletion snapshots, dedup indexes) across layers,
// so once the widest layers have sized them, new state storage is
// allocated only when a layer holds more states than the pools have
// collected.
//
// A pool is single-owner and not safe for concurrent use. The parallel
// construction gives each expansion worker slot its own pool and keeps one
// on the driver; freed storage accumulates on the driver between layers and
// is redistributed to the slot pools with MoveTo while the slots are idle,
// so no pool is ever touched from two goroutines at once.
type StatePool struct {
	free []State
}

// Take copies src into recycled storage, or fresh storage when the pool is
// empty.
func (p *StatePool) Take(src *State) State {
	var s State
	if n := len(p.free); n > 0 {
		s = p.free[n-1]
		p.free = p.free[:n-1]
	}
	s.Comp = append(s.Comp[:0], src.Comp...)
	s.Flag = append(s.Flag[:0], src.Flag...)
	s.Tcnt = append(s.Tcnt[:0], src.Tcnt...)
	return s
}

// Put returns state storage to the pool. The caller must not use s again.
func (p *StatePool) Put(s State) {
	p.free = append(p.free, s)
}

// Len reports how many recycled states the pool holds.
func (p *StatePool) Len() int { return len(p.free) }

// MoveTo transfers up to n pooled states into dst and reports how many were
// moved. Only storage moves — no State contents are copied.
func (p *StatePool) MoveTo(dst *StatePool, n int) int {
	if n > len(p.free) {
		n = len(p.free)
	}
	if n <= 0 {
		return 0
	}
	cut := len(p.free) - n
	dst.free = append(dst.free, p.free[cut:]...)
	for i := cut; i < len(p.free); i++ {
		p.free[i] = State{}
	}
	p.free = p.free[:cut]
	return n
}
