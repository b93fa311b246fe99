package tmk

// memArena batches the allocations behind long-lived protocol state: Diff
// headers and Runs arrays (created locally or received in diff responses),
// run payload bytes, and the IntervalRec/VC/page-list triples decoded from
// grant and barrier messages.  All of it is (almost always) permanent —
// a processor holds every diff it has created or fetched and every
// interval record it has learned — so the arena only amortizes
// allocation; it never reclaims.  Carving always moves forward through a
// freshly allocated chunk, so carved memory starts zeroed and is never
// handed out twice.
type memArena struct {
	hdrs  []Diff
	runs  []Run
	bytes []byte
	recs  []IntervalRec
	vcs   []int32
	pages []int
	slots []*Diff
}

func (a *memArena) newDiff() *Diff {
	if len(a.hdrs) == 0 {
		a.hdrs = make([]Diff, 64)
	}
	d := &a.hdrs[0]
	a.hdrs = a.hdrs[1:]
	return d
}

// newRuns returns an empty capacity-n Run slice carved from the arena.
func (a *memArena) newRuns(n int) []Run {
	if n > len(a.runs) {
		a.runs = make([]Run, max(256, n))
	}
	s := a.runs[:n:n]
	a.runs = a.runs[n:]
	return s[:0]
}

// cloneBytes copies b into arena storage.
func (a *memArena) cloneBytes(b []byte) []byte {
	if len(b) > len(a.bytes) {
		a.bytes = make([]byte, max(1<<16, len(b)))
	}
	s := a.bytes[:len(b):len(b)]
	a.bytes = a.bytes[len(b):]
	copy(s, b)
	return s
}

func (a *memArena) newRec() *IntervalRec {
	if len(a.recs) == 0 {
		a.recs = make([]IntervalRec, 128)
	}
	r := &a.recs[0]
	a.recs = a.recs[1:]
	return r
}

// cloneVC copies v into arena storage: the sparse entry slices are
// carved as 2k int32s from the shared pool.  Carvings are exact-cap,
// so a later append on the clone reallocates instead of growing into
// pool memory.  Used for the immutable timestamp snapshots published
// in interval records and for the clones that reliable mode puts into
// retransmittable messages.
func (a *memArena) cloneVC(v VC) VC {
	k := len(v.ps)
	if k == 0 {
		return VC{n: v.n}
	}
	if 2*k > len(a.vcs) {
		a.vcs = make([]int32, max(4096, 2*k))
	}
	ps := a.vcs[:k:k]
	vs := a.vcs[k : 2*k : 2*k]
	a.vcs = a.vcs[2*k:]
	copy(ps, v.ps)
	copy(vs, v.vs)
	return VC{n: v.n, ps: ps, vs: vs}
}

// newPages returns an empty capacity-n page list carved from the arena.
func (a *memArena) newPages(n int) []int {
	if n > len(a.pages) {
		a.pages = make([]int, max(4096, n))
	}
	s := a.pages[:n:n]
	a.pages = a.pages[n:]
	return s[:0]
}

// newDiffSlots returns an empty capacity-n diff-pointer slice carved from
// the arena, seeding a writerDiffs store (growth past n falls back to the
// heap).
func (a *memArena) newDiffSlots(n int) []*Diff {
	if n > len(a.slots) {
		a.slots = make([]*Diff, max(1024, n))
	}
	s := a.slots[:n:n]
	a.slots = a.slots[n:]
	return s[:0]
}
