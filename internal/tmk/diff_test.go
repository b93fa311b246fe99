package tmk

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMakeDiffEmpty(t *testing.T) {
	a := make([]byte, 128)
	d := MakeDiff(0, a, a)
	if len(d.Runs) != 0 || d.Size() != 0 {
		t.Fatalf("identical pages should produce an empty diff: %+v", d)
	}
}

func TestMakeDiffSingleRun(t *testing.T) {
	twin := make([]byte, 64)
	cur := make([]byte, 64)
	copy(cur[10:], []byte{1, 2, 3})
	d := MakeDiff(3, twin, cur)
	if len(d.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(d.Runs))
	}
	if d.Runs[0].Off != 10 || len(d.Runs[0].Data) != 3 {
		t.Fatalf("run = %+v", d.Runs[0])
	}
}

func TestMakeDiffCoalescesShortGaps(t *testing.T) {
	twin := make([]byte, 64)
	cur := make([]byte, 64)
	cur[0] = 1
	cur[6] = 1 // gap of 5 unchanged bytes <= 8: coalesce
	d := MakeDiff(0, twin, cur)
	if len(d.Runs) != 1 {
		t.Fatalf("short gaps should coalesce: %d runs", len(d.Runs))
	}
	cur2 := make([]byte, 64)
	cur2[0] = 1
	cur2[40] = 1 // long gap: separate runs
	d2 := MakeDiff(0, twin, cur2)
	if len(d2.Runs) != 2 {
		t.Fatalf("long gaps should split: %d runs", len(d2.Runs))
	}
}

// An arena-backed diff copies each coalesced run into the arena exactly
// once: a page whose modified bytes sit a short gap apart — every run
// coalesces into its predecessor — must not touch the heap at all once the
// arena's chunks are in place.
func TestMakeDiffArenaPayloadNoHeap(t *testing.T) {
	const ps, runs = 4096, 100
	twin := make([]byte, ps)
	cur := make([]byte, ps)
	for i := 0; i < ps; i += 8 {
		cur[i] = 1
	}
	a := &memArena{
		hdrs:  make([]Diff, runs+1), // AllocsPerRun adds a warm-up call
		runs:  make([]Run, 4*(runs+1)),
		bytes: make([]byte, ps*(runs+1)),
	}
	var d *Diff
	if n := testing.AllocsPerRun(runs, func() { d = makeDiff(twin, cur, a) }); n != 0 {
		t.Fatalf("arena-backed makeDiff allocates %v times per page, want 0", n)
	}
	if len(d.Runs) != 1 || d.Runs[0].Off != 0 || len(d.Runs[0].Data) != ps-7 {
		t.Fatalf("short gaps should coalesce into one run: %d runs", len(d.Runs))
	}
	if !bytes.Equal(d.Runs[0].Data, cur[:ps-7]) {
		t.Fatal("coalesced payload differs from the page")
	}
}

func TestDiffApplyRoundTrip(t *testing.T) {
	twin := []byte("the quick brown fox jumps over the lazy dog....")
	cur := append([]byte(nil), twin...)
	copy(cur[4:], "slow!")
	copy(cur[30:], "XYZ")
	d := MakeDiff(0, twin, cur)
	got := append([]byte(nil), twin...)
	d.Apply(got)
	if !bytes.Equal(got, cur) {
		t.Fatalf("apply: got %q want %q", got, cur)
	}
}

func TestMakeDiffSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MakeDiff(0, make([]byte, 4), make([]byte, 8))
}

// Property: for random twin/current pairs, twin + diff == current.
func TestDiffRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 64 + r.Intn(512)
		twin := make([]byte, n)
		r.Read(twin)
		cur := append([]byte(nil), twin...)
		// Random sparse mutations.
		for k := r.Intn(10); k > 0; k-- {
			i := r.Intn(n)
			cur[i] = byte(r.Intn(256))
		}
		d := MakeDiff(0, twin, cur)
		got := append([]byte(nil), twin...)
		d.Apply(got)
		return bytes.Equal(got, cur)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: diffs from disjoint writers merge regardless of order — the
// multiple-writer protocol's core invariant.
func TestDisjointDiffMergeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 256
		base := make([]byte, n)
		r.Read(base)
		// Writer A mutates the first half, writer B the second half.
		curA := append([]byte(nil), base...)
		curB := append([]byte(nil), base...)
		for k := 1 + r.Intn(8); k > 0; k-- {
			curA[r.Intn(n/2)] ^= byte(1 + r.Intn(255))
		}
		for k := 1 + r.Intn(8); k > 0; k-- {
			curB[n/2+r.Intn(n/2)] ^= byte(1 + r.Intn(255))
		}
		dA := MakeDiff(0, base, curA)
		dB := MakeDiff(0, base, curB)

		ab := append([]byte(nil), base...)
		dA.Apply(ab)
		dB.Apply(ab)
		ba := append([]byte(nil), base...)
		dB.Apply(ba)
		dA.Apply(ba)
		if !bytes.Equal(ab, ba) {
			return false
		}
		// Result must contain both writers' changes.
		want := append([]byte(nil), curA...)
		copy(want[n/2:], curB[n/2:])
		return bytes.Equal(ab, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// referenceMakeDiff is the original byte-at-a-time scan, kept as the
// specification for the word-at-a-time implementation.
func referenceMakeDiff(twin, cur []byte) *Diff {
	d := &Diff{}
	i := 0
	for i < len(cur) {
		if twin[i] == cur[i] {
			i++
			continue
		}
		j := i + 1
		for j < len(cur) && twin[j] != cur[j] {
			j++
		}
		if n := len(d.Runs); n > 0 {
			last := &d.Runs[n-1]
			gap := i - (last.Off + len(last.Data))
			if gap <= 8 {
				last.Data = append(last.Data, cur[last.Off+len(last.Data):j]...)
				i = j
				continue
			}
		}
		d.Runs = append(d.Runs, Run{Off: i, Data: append([]byte(nil), cur[i:j]...)})
		i = j
	}
	return d
}

// Property: the block-at-a-time MakeDiff produces encodings identical to
// the byte-at-a-time reference — offsets, lengths, payloads and Size.
// Diff sizes feed modeled time and wire byte counts, so any divergence
// would break the determinism guarantee across implementations.
func TestMakeDiffMatchesReferenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// Odd sizes exercise the non-word-aligned tail.
		n := 1 + r.Intn(600)
		twin := make([]byte, n)
		r.Read(twin)
		cur := append([]byte(nil), twin...)
		switch r.Intn(9) {
		case 0: // sparse byte flips
			for k := r.Intn(12); k > 0; k-- {
				cur[r.Intn(n)] ^= byte(1 + r.Intn(255))
			}
		case 1: // dense block rewrite
			lo := r.Intn(n)
			hi := lo + r.Intn(n-lo)
			for i := lo; i < hi; i++ {
				cur[i] ^= byte(1 + r.Intn(255))
			}
		case 2: // alternating short runs and short gaps
			for i := r.Intn(9); i < n; i += 1 + r.Intn(12) {
				cur[i] ^= 0x80
			}
		case 3: // everything changed
			for i := range cur {
				cur[i] ^= byte(1 + r.Intn(255))
			}
		case 4: // float-like: words that differ in some bytes and agree in others
			for i := 0; i < n; i += 8 {
				mask := r.Intn(256) * r.Intn(4) // a quarter of the words stay equal
				for b := 0; b < 8 && i+b < n; b++ {
					if mask>>b&1 != 0 {
						cur[i+b] ^= byte(1 + r.Intn(255))
					}
				}
			}
		case 5: // single bytes 7, 8 or 9 equal bytes apart: every gap straddles a word boundary
			for i := r.Intn(8); i < n; i += 1 + 7 + r.Intn(3) {
				cur[i] ^= byte(1 + r.Intn(255))
			}
		case 6: // a differing byte in the tail past the last whole word, 8 or 9 equal bytes after the one before
			n = (n + 16) | 1 // not a multiple of 8, and room for the byte before
			twin = append(twin, make([]byte, n-len(twin))...)
			cur = append([]byte(nil), twin...)
			i := n&^7 + r.Intn(n&7)
			cur[i] ^= byte(1 + r.Intn(255))
			for i -= 1 + 8 + r.Intn(2); i >= 0; i -= 1 + r.Intn(12) {
				cur[i] ^= byte(1 + r.Intn(255))
			}
		case 7: // 32-byte blocks whose every word differs in its lowest byte, 7 to 10 equal bytes apart across block boundaries
			n = 32 * (2 + r.Intn(20))
			twin = make([]byte, n)
			r.Read(twin)
			cur = append([]byte(nil), twin...)
			for i := range cur {
				if i%8 == 0 || r.Intn(2) == 0 {
					cur[i] ^= byte(1 + r.Intn(255))
				}
			}
			for j := 32; j < n; j += 32 {
				if r.Intn(4) == 0 {
					continue // the blocks touch: no gap
				}
				g := 7 + r.Intn(4) // equal bytes just before block j, which opens with a differing byte
				copy(cur[j-g:j], twin[j-g:j])
				cur[j-g-1] = twin[j-g-1] ^ byte(1+r.Intn(255))
			}
		case 8: // up to a page and 40 bytes, float-like words: whole pages, and 1-3 words or a part word past the last block
			n = 32*[]int{r.Intn(129), 128}[r.Intn(2)] + []int{0, 8, 16, 24, r.Intn(41)}[r.Intn(5)]
			twin = make([]byte, n)
			r.Read(twin)
			cur = append([]byte(nil), twin...)
			for i := 0; i < n; i += 8 {
				if r.Intn(4) == 0 {
					continue
				}
				for b := 0; b < 5 && i+b < n; b++ { // the low bytes of a float's mantissa
					if b == 0 || r.Intn(2) == 0 {
						cur[i+b] ^= byte(1 + r.Intn(255))
					}
				}
			}
		}
		got := MakeDiff(0, twin, cur)
		want := referenceMakeDiff(twin, cur)
		if len(got.Runs) != len(want.Runs) || got.Size() != want.Size() {
			return false
		}
		for i := range got.Runs {
			if got.Runs[i].Off != want.Runs[i].Off || !bytes.Equal(got.Runs[i].Data, want.Runs[i].Data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkMakeDiff measures page comparison throughput on the four
// shapes that matter in practice: a clean page (barrier with no local
// writes to ship), a sparsely modified page (a few scalars changed), a
// densely modified page (bulk overwrite), and a page of floating-point
// values that all moved a little.
func BenchmarkMakeDiff(b *testing.B) {
	const ps = 4096
	twin := make([]byte, ps)
	r := rand.New(rand.NewSource(1))
	r.Read(twin)

	bench := func(name string, cur []byte) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(ps)
			for i := 0; i < b.N; i++ {
				MakeDiff(0, twin, cur)
			}
		})
	}

	clean := append([]byte(nil), twin...)
	bench("clean", clean)

	sparse := append([]byte(nil), twin...)
	for i := 0; i < 8; i++ {
		sparse[i*512+128] ^= 0xff
	}
	bench("sparse", sparse)

	dense := make([]byte, ps)
	for i := range dense {
		dense[i] = twin[i] ^ 0x5a
	}
	bench("dense", dense)

	// Every float64 nudged: the low bytes of each word differ, the sign
	// and exponent bytes agree — what a relaxation sweep leaves behind.
	float := append([]byte(nil), twin...)
	for i := 0; i < ps; i += 8 {
		putU64(float[i:], getU64(twin[i:])^0x0000_00ff_ffff_ffff)
	}
	bench("float", float)
}

// Zero-initialized data that stays mostly zero produces tiny diffs: the
// reason TreadMarks ships less data than PVM on SOR-Zero.
func TestZeroPageDiffIsSmall(t *testing.T) {
	twin := make([]byte, 4096)
	cur := make([]byte, 4096)
	putF64(cur[128:], 0.25) // a single interior element became nonzero
	d := MakeDiff(0, twin, cur)
	if d.Size() > 32 {
		t.Fatalf("diff size = %d, want tiny", d.Size())
	}
}
