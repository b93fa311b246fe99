package tmk

import "fmt"

// Bit tricks for the word-at-a-time page comparison in MakeDiff.
const (
	lsbMask = 0x0101010101010101
	msbMask = 0x8080808080808080
)

// hasZeroByte reports whether any byte of x is zero.
func hasZeroByte(x uint64) bool {
	return (x-lsbMask) & ^x & msbMask != 0
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
// The scan is word-at-a-time: unchanged stretches advance eight bytes per
// uint64 compare, and fully modified stretches advance eight bytes per
// zero-byte test on the XOR of the two words.  Run boundaries are still
// resolved byte-exactly, so the encoding is identical to a byte-at-a-time
// scan — diff sizes feed modeled time and wire accounting, which must not
// drift.
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
	n := len(cur)
	for i := skipSame(twin, cur, 0); i < n; {
		j := runEnd(twin, cur, i)
		next := skipSame(twin, cur, j)
		for next < n && next-j <= 8 {
			j = runEnd(twin, cur, next)
			next = skipSame(twin, cur, j)
		}
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
		i = next
	}
	return d
}

// skipSame returns the first index >= i at which twin and cur differ, or
// len(cur): unchanged stretches advance eight bytes per uint64 compare.
func skipSame(twin, cur []byte, i int) int {
	n := len(cur)
	for i+8 <= n && getU64(twin[i:]) == getU64(cur[i:]) {
		i += 8
	}
	for i < n && twin[i] == cur[i] {
		i++
	}
	return i
}

// runEnd returns the end of the modified run starting at i (twin[i] !=
// cur[i]): a word whose XOR has no zero byte is modified throughout; the
// trailing boundary is found bytewise.
func runEnd(twin, cur []byte, i int) int {
	n := len(cur)
	j := i + 1
	for j+8 <= n && !hasZeroByte(getU64(twin[j:])^getU64(cur[j:])) {
		j += 8
	}
	for j < n && twin[j] != cur[j] {
		j++
	}
	return j
}

// Empty reports whether the diff carries no modifications.
func (d *Diff) Empty() bool { return len(d.Runs) == 0 }

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
