package tmk

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// mkVC builds a width-len(vals) vector with the given dense entries —
// the test-side constructor replacing the dense composite literals.
func mkVC(vals ...int32) VC {
	v := NewVC(len(vals))
	for p, x := range vals {
		v.SetMax(p, x)
	}
	return v
}

// dense reads v back out as a flat vector, for comparison against the
// reference implementation.
func dense(v VC) []int32 {
	out := make([]int32, v.Len())
	for p := range out {
		out[p] = v.Get(p)
	}
	return out
}

func TestVCBasics(t *testing.T) {
	v := NewVC(3)
	w := NewVC(3)
	if !v.coversExcept(w, -1) || !w.coversExcept(v, -1) {
		t.Fatal("equal vectors must cover each other")
	}
	w.SetMax(1, 2)
	if !w.coversExcept(v, -1) || v.coversExcept(w, -1) {
		t.Fatal("covers after bump")
	}
	v.SetMax(0, 1)
	if v.coversExcept(w, -1) || w.coversExcept(v, -1) {
		t.Fatal("divergent vectors cover neither way")
	}
}

func TestVCMerge(t *testing.T) {
	v := mkVC(1, 5, 2)
	w := mkVC(3, 1, 2)
	v.Merge(w)
	if v.Get(0) != 3 || v.Get(1) != 5 || v.Get(2) != 2 {
		t.Fatalf("merge = %v", dense(v))
	}
}

func TestVCCoversInterval(t *testing.T) {
	v := mkVC(2, 0)
	if !v.CoversInterval(0, 1) {
		t.Fatal("should cover interval 1 of proc 0")
	}
	if v.CoversInterval(0, 2) {
		t.Fatal("should not cover interval 2 of proc 0")
	}
	if v.CoversInterval(1, 0) {
		t.Fatal("should not cover any interval of proc 1")
	}
}

func TestVCCloneIndependent(t *testing.T) {
	v := mkVC(1, 2)
	c := v.Clone()
	c.SetMax(0, 9)
	if v.Get(0) != 1 {
		t.Fatal("clone aliases original")
	}
}

// TestVCCanonicalForm pins the representation invariant DeepEqual
// comparisons rely on: no stored zeros, sorted entries, nil slices
// when empty — however the vector was built.
func TestVCCanonicalForm(t *testing.T) {
	v := NewVC(5)
	v.SetMax(2, 0) // zero writes must not create entries
	if v.ps != nil || v.vs != nil {
		t.Fatalf("zero SetMax stored an entry: %+v", v)
	}
	if !reflect.DeepEqual(v, NewVC(5)) {
		t.Fatal("empty vectors not DeepEqual")
	}
	v.SetMax(3, 1)
	v.SetMax(1, 4)
	v.SetMax(3, 2)
	w := mkVC(0, 4, 0, 2, 0)
	if !reflect.DeepEqual(v, w) {
		t.Fatalf("insertion order leaked into representation: %+v vs %+v", v, w)
	}
	// MergeMin down to empty must return to the canonical nil form.
	v.MergeMin(NewVC(5))
	if !reflect.DeepEqual(v, NewVC(5)) {
		t.Fatalf("MergeMin to empty is not canonical: %+v", v)
	}
}

// randVC generates small random vectors for property tests.  Entries
// are frequently zero, so sparse/dense disagreements on absent entries
// get exercised hard.
func randVC(r *rand.Rand, n int) VC {
	v := NewVC(n)
	for p := 0; p < n; p++ {
		v.SetMax(p, int32(r.Intn(4)))
	}
	return v
}

// Property: coversExcept(·, -1) is a partial order — reflexive,
// antisymmetric (up to equality), transitive; Merge produces an upper
// bound.
func TestVCPartialOrderProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randVC(r, 4), randVC(r, 4), randVC(r, 4)
		if !a.coversExcept(a, -1) {
			return false
		}
		if a.coversExcept(b, -1) && b.coversExcept(c, -1) && !a.coversExcept(c, -1) {
			return false
		}
		m := a.Clone()
		m.Merge(b)
		return m.coversExcept(a, -1) && m.coversExcept(b, -1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// ---------------------------------------------------------------------
// Differential test: the sparse representation against a trivially
// correct dense reference, over randomized vectors.

type denseVC []int32

func (v denseVC) covers(w denseVC) bool {
	for i := range v {
		if v[i] < w[i] {
			return false
		}
	}
	return true
}

func (v denseVC) merge(w denseVC) {
	for i := range v {
		if w[i] > v[i] {
			v[i] = w[i]
		}
	}
}

func (v denseVC) mergeMin(w denseVC) {
	for i := range v {
		if w[i] < v[i] {
			v[i] = w[i]
		}
	}
}

// TestVCSparseMatchesDense drives random operation sequences through
// the sparse VC and the dense reference in lockstep and requires every
// observable — Get, coversExcept, CoversInterval, and the vectors
// produced by Merge/MergeMin — to agree exactly.
func TestVCSparseMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(12)
		mk := func() (VC, denseVC) {
			s, d := NewVC(n), make(denseVC, n)
			// Bias toward sparse vectors: most entries stay zero.
			for k := r.Intn(n + 1); k > 0; k-- {
				p, x := r.Intn(n), int32(r.Intn(5))
				s.SetMax(p, x)
				if x > d[p] {
					d[p] = x
				}
			}
			return s, d
		}
		sa, da := mk()
		sb, db := mk()
		for p := 0; p < n; p++ {
			if sa.Get(p) != da[p] {
				return false
			}
		}
		if sa.coversExcept(sb, -1) != da.covers(db) || sb.coversExcept(sa, -1) != db.covers(da) {
			return false
		}
		skip := r.Intn(n+1) - 1 // -1: no component excused
		ds, dbs := append(denseVC(nil), da...), append(denseVC(nil), db...)
		if skip >= 0 {
			ds[skip], dbs[skip] = 0, 0
		}
		if sa.coversExcept(sb, skip) != ds.covers(dbs) {
			return false
		}
		p, idx := r.Intn(n), r.Intn(5)
		if sa.CoversInterval(p, idx) != (da[p] > int32(idx)) {
			return false
		}
		sm, dm := sa.Clone(), append(denseVC(nil), da...)
		sm.Merge(sb)
		dm.merge(db)
		if !reflect.DeepEqual(dense(sm), []int32(dm)) {
			return false
		}
		// Merge must be canonical: equal to building the result directly.
		if !reflect.DeepEqual(sm, mkVCWidth(n, dm)) {
			return false
		}
		lo, dlo := sa.Clone(), append(denseVC(nil), da...)
		lo.MergeMin(sb)
		dlo.mergeMin(db)
		if !reflect.DeepEqual(dense(lo), []int32(dlo)) {
			return false
		}
		if !reflect.DeepEqual(lo, mkVCWidth(n, dlo)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestVCCoversExcept pins coversExcept's merge walk: components absent
// from either side, the skipped component (a record's own writer)
// failing or missing, and vectors on both sides of the
// linear-scan/binary-search width split.
func TestVCCoversExcept(t *testing.T) {
	type ent struct {
		p int
		x int32
	}
	mk := func(n int, es []ent) VC {
		v := NewVC(n)
		for _, e := range es {
			v.SetMax(e.p, e.x)
		}
		return v
	}
	for _, n := range []int{8, 64, 256} {
		last := n - 1
		for _, c := range []struct {
			name string
			v, w []ent
			skip int
			want bool
		}{
			{"both empty", nil, nil, -1, true},
			{"w empty", []ent{{0, 3}, {last, 1}}, nil, -1, true},
			{"v empty", nil, []ent{{last, 1}}, -1, false},
			{"equal", []ent{{1, 2}, {last, 4}}, []ent{{1, 2}, {last, 4}}, -1, true},
			{"v ahead, extra components", []ent{{0, 9}, {1, 3}, {5, 1}, {last, 4}}, []ent{{1, 2}, {last, 4}}, -1, true},
			{"v behind at one", []ent{{1, 2}, {last, 3}}, []ent{{1, 2}, {last, 4}}, -1, false},
			{"component absent from v", []ent{{1, 2}, {last, 4}}, []ent{{1, 2}, {4, 1}, {last, 4}}, -1, false},
			{"absent from v past its end", []ent{{1, 2}}, []ent{{1, 2}, {last, 1}}, -1, false},
			{"skip the one behind", []ent{{1, 2}, {last, 3}}, []ent{{1, 2}, {last, 4}}, last, true},
			{"skip the one absent", []ent{{1, 2}, {last, 4}}, []ent{{1, 2}, {4, 1}, {last, 4}}, 4, true},
			{"skip first, fail later", []ent{{last, 3}}, []ent{{0, 1}, {last, 4}}, 0, false},
			{"skip elsewhere does not excuse", []ent{{1, 2}, {last, 3}}, []ent{{1, 2}, {last, 4}}, 1, false},
			{"skip absent from both", []ent{{1, 2}}, []ent{{1, 2}}, 3, true},
		} {
			v, w := mk(n, c.v), mk(n, c.w)
			if got := v.coversExcept(w, c.skip); got != c.want {
				t.Errorf("n=%d %s: coversExcept = %v, want %v", n, c.name, got, c.want)
			}
			// The component-at-a-time definition the walk replaces.
			ref := true
			for q := 0; q < n; q++ {
				if q != c.skip && v.Get(q) < w.Get(q) {
					ref = false
				}
			}
			if ref != c.want {
				t.Errorf("n=%d %s: table disagrees with the Get definition", n, c.name)
			}
		}
		// Dense vectors wider than the linear-scan cutoff on both sides.
		var all, most []ent
		for q := 0; q < n; q++ {
			all = append(all, ent{q, int32(q%3 + 1)})
			if q != n/2 {
				most = append(most, ent{q, int32(q%3 + 1)})
			}
		}
		if v, w := mk(n, most), mk(n, all); v.coversExcept(w, -1) || !v.coversExcept(w, n/2) || !w.coversExcept(v, -1) {
			t.Errorf("n=%d: dense vectors differing only at %d", n, n/2)
		}
	}
}

// mkVCWidth builds a width-n vector from dense values.
func mkVCWidth(n int, vals []int32) VC {
	v := NewVC(n)
	for p, x := range vals {
		v.SetMax(p, x)
	}
	return v
}

// TestVCWideSparse exercises the binary-search path: wide vectors with
// a handful of scattered writers.
func TestVCWideSparse(t *testing.T) {
	const n = 256
	v := NewVC(n)
	writers := []int{3, 17, 64, 65, 120, 200, 201, 202, 240, 255}
	for i, p := range writers {
		v.SetMax(p, int32(i+1))
	}
	for i, p := range writers {
		if v.Get(p) != int32(i+1) {
			t.Fatalf("Get(%d) = %d, want %d", p, v.Get(p), i+1)
		}
	}
	if v.Get(0) != 0 || v.Get(100) != 0 || v.Get(254) != 0 {
		t.Fatal("absent entries must read zero")
	}
	if len(v.ps) != len(writers) {
		t.Fatalf("stored %d entries, want %d", len(v.ps), len(writers))
	}
	w := v.Clone()
	w.SetMax(100, 7)
	if !w.coversExcept(v, -1) || v.coversExcept(w, -1) {
		t.Fatal("cover after wide insert")
	}
}

// randSparseVC returns a width-n vector with about k random nonzero
// entries.
func randSparseVC(r *rand.Rand, n, k int) VC {
	v := NewVC(n)
	for ; k > 0; k-- {
		v.SetMax(r.Intn(n), int32(1+r.Intn(6)))
	}
	return v
}

// TestVCMergeMatchesSequentialSetMaxProperty: Merge must leave the
// vector exactly as one SetMax per entry of w in ascending order does, and
// a struct copy taken beforehand — the live-shared timestamp inside a
// message — must see the same values under both, on random sparse vectors
// up to width 256.  A merge that inserts allocates the new slices once.
func TestVCMergeMatchesSequentialSetMaxProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	inserts, raisedThenInserted := 0, 0
	for iter := 0; iter < 3000; iter++ {
		n := 1 + r.Intn(256)
		seq := randSparseVC(r, n, r.Intn(n+1)/(1+r.Intn(8)))
		mrg := seq.Clone()
		seqAlias, mrgAlias := seq, mrg
		before := dense(seq)
		w := randSparseVC(r, n, r.Intn(n+1)/(1+r.Intn(8)))
		for k, q := range w.ps {
			seq.SetMax(int(q), w.vs[k])
		}
		mrg.Merge(w)
		if !reflect.DeepEqual(seq, mrg) {
			t.Fatalf("iter %d: Merge = %v, sequential SetMax = %v", iter, dense(mrg), dense(seq))
		}
		if !reflect.DeepEqual(dense(seqAlias), dense(mrgAlias)) {
			t.Fatalf("iter %d: aliased copy sees %v, sequential SetMax leaves it %v", iter, dense(mrgAlias), dense(seqAlias))
		}
		if len(seq.ps) > len(seqAlias.ps) {
			inserts++
			if !reflect.DeepEqual(dense(seqAlias), before) {
				raisedThenInserted++ // the copy saw raises, then the insert froze it
			}
		}
	}
	if raisedThenInserted == 0 {
		t.Fatalf("generator too tame: of %d merges that inserted, none raised an entry in place first", inserts)
	}
	base := NewVC(256)
	for q := 0; q < 256; q += 2 {
		base.SetMax(q, 3)
	}
	all := NewVC(256)
	for q := 0; q < 256; q++ {
		all.SetMax(q, 4)
	}
	vcs := make([]VC, 101)
	for i := range vcs {
		vcs[i] = base.Clone()
	}
	i := 0
	if allocs := testing.AllocsPerRun(100, func() { vcs[i].Merge(all); i++ }); allocs != 2 {
		t.Errorf("a merge inserting 128 entries allocates %v times, want 2 (one ps, one vs)", allocs)
	}
}

// TestVCCursorMatchesGet: reading a vector through a cursor, for any
// non-decreasing sequence of ids, returns what Get returns.
func TestVCCursorMatchesGet(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for iter := 0; iter < 2000; iter++ {
		n := 1 + r.Intn(256)
		v := randSparseVC(r, n, r.Intn(n+1))
		c := vcCursor{v: v}
		for q := 0; q < n; q += r.Intn(4) {
			if got, want := c.get(int32(q)), v.Get(q); got != want {
				t.Fatalf("iter %d: cursor get(%d) = %d, Get = %d", iter, q, got, want)
			}
		}
	}
}
