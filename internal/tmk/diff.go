package tmk

import (
	"fmt"
	"math/bits"
)

// Bit tricks for the word-at-a-time page comparison in MakeDiff.
const (
	lsbMask = 0x0101010101010101
	lowMask = 0x7f7f7f7f7f7f7f7f
	msbMask = 0x8080808080808080
)

// hasZeroByte reports whether any byte of x is zero.
func hasZeroByte(x uint64) bool {
	return (x-lsbMask) & ^x & msbMask != 0
}

// nonzeroBytes returns a word with the top bit of each byte set exactly
// where the corresponding byte of x is non-zero: adding 0x7f to a byte's
// low seven bits carries into its top bit iff one of them is set, and
// never out of the byte.
func nonzeroBytes(x uint64) uint64 {
	return ((x&lowMask + lowMask) | x) & msbMask
}

// A Diff is a run-length encoding of the modifications made to a page
// (paper §2.2.2): it records the byte ranges of a page that differ between
// the twin saved before the first write of an interval and the page
// contents at the end of the interval.  Applying a diff copies those
// ranges into another copy of the page; diffs from distinct writers to
// disjoint parts of a page merge without interference, which is the
// multiple-writer protocol's answer to false sharing.
type Diff struct {
	Page int
	Runs []Run
}

// Run is one modified byte range within a page.
type Run struct {
	Off  int
	Data []byte
}

// MakeDiff compares twin (the pre-modification copy) against cur and
// returns the run-length encoding of the changed ranges, or an empty diff
// if nothing changed.  len(twin) must equal len(cur).
//
// The scan is word-at-a-time: each uint64 of twin^cur is reduced to the
// mask of its differing bytes, whose first and last set bits bound the
// word's contribution to a run.  Differing bytes within one word are at
// most six equal bytes apart, so a run can only close between words.  Run
// boundaries stay byte-exact, so the encoding is identical to a
// byte-at-a-time scan — diff sizes feed modeled time and wire accounting,
// which must not drift.
func MakeDiff(page int, twin, cur []byte) *Diff {
	return makeDiff(page, twin, cur, nil)
}

// makeDiff is MakeDiff with an optional arena backing the Diff header and
// the run payload copies (both permanent once the diff is filed).  The
// encoding produced is identical either way.
func makeDiff(page int, twin, cur []byte, a *memArena) *Diff {
	if len(twin) != len(cur) {
		panic(fmt.Sprintf("tmk: diff size mismatch %d vs %d", len(twin), len(cur)))
	}
	var d *Diff
	if a != nil {
		d = a.newDiff()
		d.Page = page
	} else {
		d = &Diff{Page: page}
	}
	// Find each run's coalesced extent first — runs separated by a short
	// unchanged gap merge, as real diff implementations word-align and
	// merge to cut per-run overhead — then carve and copy it once.
	start, end := -1, 0 // the open run is cur[start:end]; none if start < 0
	n8 := len(cur) &^ 7
	tw, cw := twin[:n8], cur[:n8]
	for i := 0; i < len(tw) && i < len(cw); i += 8 {
		x := getU64(tw[i:]) ^ getU64(cw[i:])
		if x == 0 {
			continue
		}
		lo, hi := i, i+8
		if hasZeroByte(x) { // else modified throughout: bulk overwrites
			m := nonzeroBytes(x)
			lo += bits.TrailingZeros64(m) / 8
			hi -= bits.LeadingZeros64(m) / 8
		}
		if start < 0 {
			start = lo
		} else if lo-end > 8 {
			d.appendRun(a, cur, start, end)
			start = lo
		}
		end = hi
	}
	for i := n8; i < len(cur); i++ { // the tail shorter than a word
		if twin[i] == cur[i] {
			continue
		}
		if start < 0 {
			start = i
		} else if i-end > 8 {
			d.appendRun(a, cur, start, end)
			start = i
		}
		end = i + 1
	}
	if start >= 0 {
		d.appendRun(a, cur, start, end)
	}
	return d
}

// appendRun files cur[i:j] as the diff's next run, copying the payload
// into the arena if there is one.
func (d *Diff) appendRun(a *memArena, cur []byte, i, j int) {
	var data []byte
	if a != nil {
		data = a.cloneBytes(cur[i:j])
		if d.Runs == nil {
			d.Runs = a.newRuns(4) // seed; growth past 4 goes to the heap
		}
	} else {
		data = append([]byte(nil), cur[i:j]...)
	}
	d.Runs = append(d.Runs, Run{Off: i, Data: data})
}

// Apply copies the diff's runs into page data dst.
func (d *Diff) Apply(dst []byte) {
	for _, r := range d.Runs {
		copy(dst[r.Off:], r.Data)
	}
}

// Size returns the encoded size in bytes: 4 bytes of run metadata per run
// (u16 offset, u16 length) plus the run payloads.  This is what travels on
// the wire inside a diff response.
func (d *Diff) Size() int {
	n := 0
	for _, r := range d.Runs {
		n += 4 + len(r.Data)
	}
	return n
}
