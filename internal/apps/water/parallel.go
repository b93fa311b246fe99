package water

// interactionWindow lists the processors whose chunks overlap the n/2
// molecules following processor id's chunk — the processors id exchanges
// data with.
func interactionWindow(mols, nprocs, id int) []int {
	lo, hi := chunk(mols, nprocs, id)
	half := mols / 2
	seen := map[int]bool{}
	var out []int
	for a := lo; a < hi; a++ {
		for _, b := range []int{(a + 1) % mols, (a + half) % mols} {
			p := owner(mols, nprocs, b)
			if p != id && !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	// The window is contiguous in wraparound order; molecules between the
	// two probes above belong to processors between them as well.
	for p := 0; p < nprocs; p++ {
		if p == id || seen[p] {
			continue
		}
		plo, _ := chunk(mols, nprocs, p)
		// Does any molecule of p fall inside (lo, hi+half) mod mols?
		d := (plo - lo + mols) % mols
		if d < hi-lo+half {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// PVM message tags.
const (
	tagPos = 1
	tagFrc = 2
)
