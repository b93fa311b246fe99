package tmk

import "fmt"

// Protocol message tags.  Requests go to a processor's service endpoint;
// replies go to the requesting processor's application endpoint.
const (
	tagAcqReq     = 100 + iota // app -> lock manager service
	tagAcqFwd                  // manager service -> last owner's service
	tagGrant                   // owner -> requester app
	tagBarrArrive              // client app -> barrier manager service
	tagBarrDepart              // barrier manager service -> client app
	tagDiffReq                 // faulting app -> writer's service
	tagDiffResp                // writer's service -> faulting app
	tagInval                   // eager mode: writer app -> all other services
	tagTreeArrive              // tree barrier: subtree arrival -> parent (or own) service
	tagTreeDown                // tree barrier: aggregated departure -> internal child's service
	tagTreeDepart              // tree barrier: departure -> client app
)

// ---------------------------------------------------------------------
// Wire layouts.  Every message type has one walk method that lists its
// fields in wire order over a codec.  The protocol ships structured
// messages over vnet.Endpoint.SendObj and charges wireSize, a counting
// walk, so the hot path never serializes a byte; the encoding and
// decoding walks are the documented wire format, exercised by the
// round-trip tests and the fuzz target.

// wireMsg is a protocol message with a wire layout.
type wireMsg interface{ walk(c *codec) }

// wireSize returns the exact length of m's encoding: the modeled size the
// protocol charges for it.
func wireSize(m wireMsg) int {
	var c codec
	m.walk(&c)
	return c.n
}

// codecMode selects what a walk does with each field.
type codecMode uint8

const (
	counting codecMode = iota // add up the encoded length in n
	encoding                  // append the little-endian encoding to b
	decoding                  // read b from position n back into the fields
)

// maxDecodePages bounds the pages one decoded message may name (4 GB of
// 4 KB pages, far past any modeled address space): page runs are
// counts, not bytes, so a few input bytes could otherwise ask for an
// arbitrarily long list.
const maxDecodePages = 1 << 20

// codec walks a message's fields in one of three modes.  Decoding
// panics on truncation and on any count the bytes left cannot hold.
type codec struct {
	mode  codecMode
	n     int    // counting: bytes so far; decoding: read position
	b     []byte // encoding: output; decoding: input
	named int    // decoding: pages named so far
}

func (c *codec) need(n int) {
	if c.n+n > len(c.b) {
		panic(fmt.Sprintf("tmk: wire decode: past end (pos %d + %d > %d)", c.n, n, len(c.b)))
	}
}

// u16 and u32 walk fixed-width unsigned fields.  Counting, the mode the
// hot path runs, stays small enough to inline; fixed does the rest.
func (c *codec) u16(v *int) {
	if c.mode == counting {
		c.n += 2
		return
	}
	c.fixed(v, 2)
}

func (c *codec) u32(v *int) {
	if c.mode == counting {
		c.n += 4
		return
	}
	c.fixed(v, 4)
}

// fixed encodes or decodes a w-byte little-endian field.
func (c *codec) fixed(v *int, w int) {
	if c.mode == encoding {
		for i := 0; i < w; i++ {
			c.b = append(c.b, byte(*v>>(8*i)))
		}
		return
	}
	c.need(w)
	x := 0
	for i := w - 1; i >= 0; i-- {
		x = x<<8 | int(c.b[c.n+i])
	}
	*v = x
	c.n += w
}

// list walks a list's length, a u16 or a u32 (wide).  Decoding makes
// the list (nil when empty) after checking that the bytes left hold n
// items of at least minBytes bytes each.
func list[T any](c *codec, s *[]T, wide bool, minBytes int) {
	n := len(*s)
	if wide {
		c.u32(&n)
	} else {
		c.u16(&n)
	}
	if c.mode == decoding && n > 0 {
		c.need(n * minBytes)
		*s = make([]T, n)
	}
}

// data is a u16 length and that many payload bytes.  Decoded payloads
// alias the input: diffs are only ever applied, never edited.
func (c *codec) data(p *[]byte) {
	n := len(*p)
	c.u16(&n)
	switch c.mode {
	case counting:
		c.n += n
	case encoding:
		c.b = append(c.b, *p...)
	default:
		c.need(n)
		*p = c.b[c.n : c.n+n : c.n+n]
		c.n += n
	}
}

// vc is the dense encoding of a vector timestamp: width (u16), then one
// u32 per processor.  The in-memory representation is sparse (vc.go),
// but the wire format deliberately is not — it predates the sparse
// refactor, and keeping it pins modeled message sizes bit-identical.
// A sparse *wire* delta encoding is the planned follow-on (ROADMAP).
func (c *codec) vc(v *VC) {
	if c.mode == counting {
		c.n += 2 + 4*v.Len()
		return
	}
	c.vcDense(v)
}

func (c *codec) vcDense(v *VC) {
	w := v.Len()
	c.u16(&w)
	if c.mode == encoding {
		i := 0
		for p := 0; p < w; p++ {
			x := 0
			if i < len(v.ps) && v.ps[i] == int32(p) {
				x = int(v.vs[i])
				i++
			}
			c.u32(&x)
		}
		return
	}
	c.need(4 * w)
	*v = NewVC(w)
	for p := 0; p < w; p++ {
		var x int
		c.u32(&x)
		if int32(x) > 0 {
			v.ps = append(v.ps, int32(p))
			v.vs = append(v.vs, int32(x))
		}
	}
}

// IntervalRec is a write-notice record: one interval of one processor,
// its vector timestamp, and the pages it modified (paper §2.2.2).
type IntervalRec struct {
	Proc  int
	Idx   int
	VC    VC
	Pages []int
}

// records walks a batch of interval records: a u32 count, then per
// record its writer (u16), interval idx (u32), timestamp and pages.
func (c *codec) records(recs *[]*IntervalRec) {
	list(c, recs, true, 12)
	for i, r := range *recs {
		if r == nil { // decoding
			r = new(IntervalRec)
			(*recs)[i] = r
		}
		c.u16(&r.Proc)
		c.u32(&r.Idx)
		c.vc(&r.VC)
		if c.mode == counting {
			c.n += 4 + 8*pageRuns(r.Pages)
		} else {
			c.pages(&r.Pages)
		}
	}
}

// pageRuns counts the maximal contiguous runs in a sorted page list.
func pageRuns(pages []int) int {
	runs := 0
	next := -1
	for _, pg := range pages {
		if pg != next {
			runs++
		}
		next = pg + 1
	}
	return runs
}

// pages walks a write-notice page list as run-length ranges — a u32 run
// count, then a u32 start and a u32 length per run — since applications
// overwhelmingly write contiguous page runs (SOR bands, FFT planes,
// bucket arrays).  The lists are sorted by construction (closeInterval
// sorts the dirty set).  Its counting length, 4 + 8*pageRuns, is inlined
// into records: the call alone would cost the hot path more than the
// count.
func (c *codec) pages(pages *[]int) {
	runs := pageRuns(*pages)
	c.u32(&runs)
	if c.mode == encoding {
		ps := *pages
		for i := 0; i < len(ps); {
			j := i + 1
			for j < len(ps) && ps[j] == ps[j-1]+1 {
				j++
			}
			start, cnt := ps[i], j-i
			c.u32(&start)
			c.u32(&cnt)
			i = j
		}
		return
	}
	c.need(8 * runs)
	for j := 0; j < runs; j++ {
		var start, cnt int
		c.u32(&start)
		c.u32(&cnt)
		if c.named += cnt; c.named > maxDecodePages {
			panic(fmt.Sprintf("tmk: wire decode: more than %d pages", maxDecodePages))
		}
		for k := 0; k < cnt; k++ {
			*pages = append(*pages, start+k)
		}
	}
}

// acqMsg is a lock acquire request or forward.
type acqMsg struct {
	Lock      int
	Requester int
	Seq       int // RPC id (header-resident, see rpcMsg)
	VC        VC
}

func (m *acqMsg) walk(c *codec) {
	c.u16(&m.Lock)
	c.u16(&m.Requester)
	c.vc(&m.VC)
}

// grantMsg transfers lock ownership along with the write notices the
// requester has not yet seen.
type grantMsg struct {
	Lock    int
	Seq     int // echoes the acquire's Seq (header-resident)
	Records []*IntervalRec
}

func (m *grantMsg) walk(c *codec) {
	c.u16(&m.Lock)
	c.records(&m.Records)
}

// barrMsg is a barrier arrival (client -> manager) or departure (manager
// -> client), and a combining-tree departure: the globally merged
// timestamp plus the records the receiving subtree (or client) has not
// seen, travelling one edge down the tree (tagTreeDown to an internal
// child, tagTreeDepart to a client).
type barrMsg struct {
	Barrier int
	From    int
	Seq     int // arrival RPC id, echoed by the departure (header-resident)
	VC      VC
	Records []*IntervalRec
}

func (m *barrMsg) walk(c *codec) {
	c.u16(&m.Barrier)
	c.u16(&m.From)
	c.vc(&m.VC)
	c.records(&m.Records)
}

// invMsg is an eager-invalidate broadcast: the write notices of one
// freshly closed interval (Config.EagerInvalidate).
type invMsg struct {
	From    int
	Records []*IntervalRec
}

func (m *invMsg) walk(c *codec) {
	c.u16(&m.From)
	c.records(&m.Records)
}

// treeArrMsg is a combining-tree barrier arrival: one subtree's
// aggregated state travelling one edge up the radix-k tree
// (Config.TreeBarrier).  VC is the pointwise maximum over the
// subtree's arrival timestamps, MinVC the pointwise minimum — the
// summary the root's departure filter needs, since a record must ride
// back down if *any* subtree member lacks it — and Records the
// deduplicated union of the subtree's write-notice batches.
type treeArrMsg struct {
	Barrier int
	From    int
	VC      VC
	MinVC   VC
	Records []*IntervalRec
}

func (m *treeArrMsg) walk(c *codec) {
	c.u16(&m.Barrier)
	c.u16(&m.From)
	c.vc(&m.VC)
	c.vc(&m.MinVC)
	c.records(&m.Records)
}

// diffWant names one missing diff: interval Idx of processor Proc.
type diffWant struct {
	Proc int
	Idx  int
}

// diffReqMsg asks a processor for the named diffs of one page.
type diffReqMsg struct {
	Page      int
	Requester int
	Seq       int // RPC id (header-resident, see rpcMsg)
	Wants     []diffWant
}

func (m *diffReqMsg) walk(c *codec) {
	c.u32(&m.Page)
	c.u16(&m.Requester)
	list(c, &m.Wants, false, 6)
	for i := range m.Wants {
		c.u16(&m.Wants[i].Proc)
		c.u32(&m.Wants[i].Idx)
	}
}

// diffEntry is one diff on the wire, tagged with its creating interval.
type diffEntry struct {
	Proc int
	Idx  int
	Diff *Diff
}

// diffRespMsg returns the requested diffs for one page.
type diffRespMsg struct {
	Page    int
	Seq     int // echoes the request's Seq (header-resident)
	Entries []diffEntry
}

// walk lists each entry's writer (u16), interval idx (u32) and diff: a
// u16 run count, then per run its offset (u16) and payload.
func (m *diffRespMsg) walk(c *codec) {
	c.u32(&m.Page)
	list(c, &m.Entries, false, 8)
	for i := range m.Entries {
		e := &m.Entries[i]
		c.u16(&e.Proc)
		c.u32(&e.Idx)
		if e.Diff == nil { // decoding
			e.Diff = &Diff{}
		}
		list(c, &e.Diff.Runs, false, 4)
		for j := range e.Diff.Runs {
			c.u16(&e.Diff.Runs[j].Off)
			c.data(&e.Diff.Runs[j].Data)
		}
	}
}
