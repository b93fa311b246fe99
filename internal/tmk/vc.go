package tmk

// VC is a vector timestamp over the processors of a TreadMarks system.
// Entry p counts the intervals of processor p whose write notices the
// owner of the clock has seen (equivalently: the index of p's next
// unseen interval).  The happens-before-1 partial order of intervals
// (paper §2.2.2) is represented by pointwise comparison of these
// vectors.
//
// The representation is sparse: only nonzero entries are stored, as a
// pair of parallel slices (ps: ascending processor ids, vs: their
// values).  A processor's synchronization footprint therefore scales
// with the number of *active writers* it has heard from, not with the
// total processor count — the property that lets the procs=64/256
// scenario family run without every barrier paying O(P) per record.
// The canonical form (sorted ps, no zero values, nil slices when
// empty) is maintained by every mutator, so reflect.DeepEqual on two
// VCs built through the public API is a semantic equality test.
//
// The wire encoding (wire.go) stays dense — a u16 length followed by
// one u32 per processor — so modeled message sizes are unchanged from
// the dense representation and the pinned goldens never move.
type VC struct {
	n  int32   // vector width: total processors in the system
	ps []int32 // processors with nonzero entries, ascending
	vs []int32 // parallel values, all > 0
}

// NewVC returns a zero vector timestamp for n processors.
func NewVC(n int) VC { return VC{n: int32(n)} }

// Len returns the vector width (the processor count it ranges over).
func (v VC) Len() int { return int(v.n) }

// search returns the position of p in v.ps, or the insertion point if
// absent.  Short vectors scan linearly; long ones binary-search.
func (v VC) search(p int32) int {
	if len(v.ps) <= 8 {
		for i, q := range v.ps {
			if q >= p {
				return i
			}
		}
		return len(v.ps)
	}
	lo, hi := 0, len(v.ps)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v.ps[mid] < p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Get returns entry p (zero when p has no stored entry).
func (v VC) Get(p int) int32 {
	i := v.search(int32(p))
	if i < len(v.ps) && v.ps[i] == int32(p) {
		return v.vs[i]
	}
	return 0
}

// SetMax raises entry p to x if x is larger; zero or smaller values
// are no-ops, preserving the no-stored-zeros canonical form.
//
// Raising an existing entry mutates in place — older struct copies of
// the vector (the protocol live-shares timestamps into messages while
// the sender blocks) observe the monotone growth, exactly as they did
// with the dense representation.  Inserting a new entry reallocates
// both slices instead of shifting: an in-place shift would scramble
// what those aliased copies see, so they keep a frozen-but-consistent
// pre-insert view instead.
func (v *VC) SetMax(p int, x int32) {
	if x <= 0 {
		return
	}
	i := v.search(int32(p))
	if i < len(v.ps) && v.ps[i] == int32(p) {
		if x > v.vs[i] {
			v.vs[i] = x
		}
		return
	}
	nps := make([]int32, len(v.ps)+1)
	nvs := make([]int32, len(v.vs)+1)
	copy(nps, v.ps[:i])
	copy(nvs, v.vs[:i])
	nps[i] = int32(p)
	nvs[i] = x
	copy(nps[i+1:], v.ps[i:])
	copy(nvs[i+1:], v.vs[i:])
	v.ps, v.vs = nps, nvs
}

// vcCursor reads entries of a VC for a non-decreasing sequence of
// processor ids in one forward walk: Get for callers that visit ids in
// order, with no search per id.
type vcCursor struct {
	v VC
	i int
}

// get returns entry p; p must be no smaller than on the previous call.
func (c *vcCursor) get(p int32) int32 {
	for c.i < len(c.v.ps) && c.v.ps[c.i] < p {
		c.i++
	}
	if c.i < len(c.v.ps) && c.v.ps[c.i] == p {
		return c.v.vs[c.i]
	}
	return 0
}

// Clone returns an independent copy of v.
func (v VC) Clone() VC {
	c := VC{n: v.n}
	if len(v.ps) > 0 {
		c.ps = make([]int32, len(v.ps))
		copy(c.ps, v.ps)
		c.vs = make([]int32, len(v.vs))
		copy(c.vs, v.vs)
	}
	return c
}

// CoversInterval reports whether v has seen interval idx of processor p.
func (v VC) CoversInterval(p, idx int) bool { return v.Get(p) > int32(idx) }

// Merge sets v to the pointwise maximum of v and w, at one allocation at
// most.  It keeps SetMax's aliasing rule, applied to w's entries in
// ascending order: entries v already holds are raised in place up to the
// first entry v lacks, and that insert moves v to fresh slices holding
// everything from there on.  A struct copy of v taken beforehand (a
// timestamp live-shared into a message) therefore sees exactly what one
// SetMax per entry of w would have shown it.
func (v *VC) Merge(w VC) {
	i, j := 0, 0
	for ; j < len(w.ps); j++ {
		for i < len(v.ps) && v.ps[i] < w.ps[j] {
			i++
		}
		if i == len(v.ps) || v.ps[i] != w.ps[j] {
			break // first entry v lacks: the rest goes to fresh slices
		}
		if w.vs[j] > v.vs[i] {
			v.vs[i] = w.vs[j]
		}
	}
	if j == len(w.ps) {
		return
	}
	missing := 0
	for a, b := i, j; b < len(w.ps); b++ {
		for a < len(v.ps) && v.ps[a] < w.ps[b] {
			a++
		}
		if a == len(v.ps) || v.ps[a] != w.ps[b] {
			missing++
		}
	}
	nps := append(make([]int32, 0, len(v.ps)+missing), v.ps[:i]...)
	nvs := append(make([]int32, 0, len(v.ps)+missing), v.vs[:i]...)
	for i < len(v.ps) || j < len(w.ps) {
		switch {
		case j == len(w.ps) || (i < len(v.ps) && v.ps[i] < w.ps[j]):
			nps = append(nps, v.ps[i])
			nvs = append(nvs, v.vs[i])
			i++
		case i == len(v.ps) || w.ps[j] < v.ps[i]:
			nps = append(nps, w.ps[j])
			nvs = append(nvs, w.vs[j])
			j++
		default:
			nps = append(nps, v.ps[i])
			nvs = append(nvs, max(v.vs[i], w.vs[j]))
			i++
			j++
		}
	}
	v.ps, v.vs = nps, nvs
}

// MergeMin sets v to the pointwise minimum of v and w.  Entries absent
// from either vector are zero, so the result keeps only processors
// present in both, at the smaller value.  Compaction happens in place:
// the caller must own v outright (no aliased copies).  Used by the
// combining-tree barrier to summarize what *every* member of a subtree
// has seen.
func (v *VC) MergeMin(w VC) {
	if len(v.ps) == 0 {
		return
	}
	k := 0
	j := 0
	for i := range v.ps {
		for j < len(w.ps) && w.ps[j] < v.ps[i] {
			j++
		}
		if j == len(w.ps) {
			break
		}
		if w.ps[j] != v.ps[i] {
			continue
		}
		x := v.vs[i]
		if w.vs[j] < x {
			x = w.vs[j]
		}
		v.ps[k], v.vs[k] = v.ps[i], x
		k++
	}
	if k == 0 {
		v.ps, v.vs = nil, nil
		return
	}
	v.ps, v.vs = v.ps[:k], v.vs[:k]
}
