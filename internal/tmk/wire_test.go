package tmk

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// encode returns m's wire bytes: the encoding walk of its layout.
func encode(m wireMsg) []byte {
	c := codec{mode: encoding, b: make([]byte, 0, wireSize(m))}
	m.walk(&c)
	return c.b
}

// decode reads b into m, a zero message, with the decoding walk of its
// layout.  It panics on truncation, impossible counts and trailing bytes.
func decode(b []byte, m wireMsg) {
	c := codec{mode: decoding, b: b}
	m.walk(&c)
	if c.n != len(b) {
		panic(fmt.Sprintf("tmk: wire decode: %d trailing bytes", len(b)-c.n))
	}
}

// wireTypes makes a zero message of each of the seven types; a fuzz
// input's first byte indexes it.
var wireTypes = []func() wireMsg{
	func() wireMsg { return new(acqMsg) },
	func() wireMsg { return new(grantMsg) },
	func() wireMsg { return new(barrMsg) },
	func() wireMsg { return new(invMsg) },
	func() wireMsg { return new(treeArrMsg) },
	func() wireMsg { return new(diffReqMsg) },
	func() wireMsg { return new(diffRespMsg) },
}

type wireCase struct {
	name string
	m    wireMsg
	size int // hand-computed encoded length; 0 if not pinned
}

// wireCases covers every message type with empty and non-empty record
// batches, nil page lists, empty diffs and a 400-page contiguous record.
// Messages are in decoded form: Seq zero (it rides in the header), empty
// lists nil.
func wireCases() []wireCase {
	recs := []*IntervalRec{
		{Proc: 0, Idx: 3, VC: mkVC(4, 1, 0), Pages: []int{7, 8, 9, 30}},
		{Proc: 2, Idx: 0, VC: mkVC(0, 1, 1)},
		{Proc: 1, Idx: 7, VC: mkVC(9, 8, 7), Pages: []int{0, 2, 4, 6, 8}},
	}
	run := make([]int, 400)
	for i := range run {
		run[i] = 100 + i
	}
	long := []*IntervalRec{{Proc: 0, Idx: 0, VC: mkVC(1, 0), Pages: run}}
	d1 := &Diff{Runs: []Run{{Off: 16, Data: make([]byte, 40)}, {Off: 100, Data: []byte{9}}}}
	return []wireCase{
		{"acq", &acqMsg{Lock: 7, Requester: 3, VC: mkVC(1, 0, 4)}, 18},
		{"acq-zero-vc", &acqMsg{Lock: 1, VC: mkVC(0)}, 10},
		{"grant-empty", &grantMsg{Lock: 2}, 6},
		{"grant", &grantMsg{Lock: 2, Records: recs}, 0},
		{"grant-400-pages", &grantMsg{Lock: 1, Records: long}, 34},
		{"barr", &barrMsg{Barrier: 5, From: 2, VC: mkVC(9, 8, 7), Records: recs}, 150},
		{"treedep", &barrMsg{Barrier: 4, VC: mkVC(4, 5, 7, 2), Records: recs[:1]}, 0},
		{"inval", &invMsg{From: 3, Records: recs[2:]}, 0},
		{"treearr", &treeArrMsg{Barrier: 6, From: 9, VC: mkVC(4, 0, 7), MinVC: mkVC(2, 0, 0), Records: recs}, 0},
		{"treearr-empty", &treeArrMsg{Barrier: 1, VC: mkVC(0, 0), MinVC: mkVC(0, 0)}, 28},
		{"diffreq", &diffReqMsg{Page: 42, Requester: 6, Wants: []diffWant{{1, 9}, {3, 0}}}, 20},
		{"diffresp", &diffRespMsg{Page: 3, Entries: []diffEntry{{1, 2, d1}, {0, 0, &Diff{}}}}, 71},
		{"diffresp-empty", &diffRespMsg{Page: 3}, 6},
	}
}

// checkWire runs the rows whose name starts with prefix: a message's
// encoding is as long as its counted size, and decodes back to it.
func checkWire(t *testing.T, prefix string) {
	t.Helper()
	for _, c := range wireCases() {
		if !strings.HasPrefix(c.name, prefix) {
			continue
		}
		b := encode(c.m)
		if n := wireSize(c.m); n != len(b) {
			t.Errorf("%s: wireSize %d, encoding %d bytes", c.name, n, len(b))
		}
		got := reflect.New(reflect.TypeOf(c.m).Elem()).Interface().(wireMsg)
		decode(b, got)
		if !reflect.DeepEqual(got, c.m) {
			t.Errorf("%s: decoded %+v, want %+v", c.name, got, c.m)
		}
	}
}

func TestWireRoundTrip(t *testing.T) { checkWire(t, "") }

// Per-type entries into the same table, so -run can select one layout.
// Tree departures are barrMsgs.
func TestAcqMsgRoundTrip(t *testing.T)      { checkWire(t, "acq") }
func TestGrantMsgRoundTrip(t *testing.T)    { checkWire(t, "grant") }
func TestBarrMsgRoundTrip(t *testing.T)     { checkWire(t, "barr") }
func TestTreeDepMsgRoundTrip(t *testing.T)  { checkWire(t, "treedep") }
func TestInvalMsgRoundTrip(t *testing.T)    { checkWire(t, "inval") }
func TestTreeArrMsgRoundTrip(t *testing.T)  { checkWire(t, "treearr") }
func TestDiffReqMsgRoundTrip(t *testing.T)  { checkWire(t, "diffreq") }
func TestDiffRespMsgRoundTrip(t *testing.T) { checkWire(t, "diffresp") }

// TestWireSizeMatchesEncoding pins hand-computed lengths, so the
// counting and encoding walks cannot drift together.
func TestWireSizeMatchesEncoding(t *testing.T) {
	for _, c := range wireCases() {
		if n, b := wireSize(c.m), encode(c.m); c.size != 0 && (n != c.size || len(b) != c.size) {
			t.Errorf("%s: wireSize %d, encoding %d bytes, want %d", c.name, n, len(b), c.size)
		}
	}
}

func TestWireSizeTracksPayload(t *testing.T) {
	small := wireSize(&grantMsg{Lock: 1})
	big := wireSize(&grantMsg{Lock: 1, Records: []*IntervalRec{
		{Proc: 0, Idx: 0, VC: mkVC(1, 0, 0, 0), Pages: make([]int, 100)},
	}})
	if big <= small+300 {
		t.Fatalf("100-page record should add >=400 bytes: %d vs %d", big, small)
	}
}

func TestDecodeTrailingBytesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on trailing bytes")
		}
	}()
	b := encode(&acqMsg{Lock: 1, Requester: 0, VC: mkVC(0)})
	decode(append(b, 0xFF), new(acqMsg))
}

func TestDecodeTruncatedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on truncation")
		}
	}()
	b := encode(&acqMsg{Lock: 1, Requester: 0, VC: mkVC(0, 0)})
	decode(b[:3], new(acqMsg))
}

// Contiguous page lists compress to ranges on the wire.
func TestRecordPageRangeCompression(t *testing.T) {
	pages := make([]int, 400)
	for i := range pages {
		pages[i] = 100 + i
	}
	for _, pages := range [][]int{pages, {1, 5, 6, 7, 100}} {
		m := &grantMsg{Lock: 1, Records: []*IntervalRec{{Proc: 1, Idx: 2, VC: mkVC(0, 3), Pages: pages}}}
		b := encode(m)
		if len(b) > 80 {
			t.Fatalf("%d-page record encodes to %d bytes, want small", len(pages), len(b))
		}
		got := new(grantMsg)
		decode(b, got)
		if !reflect.DeepEqual(got.Records[0].Pages, pages) {
			t.Fatalf("round trip: %v", got.Records[0].Pages)
		}
	}
}

// FuzzWireRoundTrip: the first input byte picks a message type, the rest
// is decoded as its encoding.  Whatever decodes must re-encode to exactly
// its counted size and decode again to an equal message.  The seed
// corpus in testdata/fuzz holds the encodings of wireCases.
func FuzzWireRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		mk := wireTypes[int(in[0])%len(wireTypes)]
		m := mk()
		if !decodes(in[1:], m) {
			return
		}
		b := encode(m)
		if n := wireSize(m); n != len(b) {
			t.Fatalf("wireSize %d, encoding %d bytes", n, len(b))
		}
		again := mk()
		decode(b, again)
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("re-decoded %+v, want %+v", again, m)
		}
	})
}

// decodes is decode reporting a wire decode panic as false; any other
// panic is a bug and propagates.
func decodes(b []byte, m wireMsg) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if s, _ := r.(string); !strings.HasPrefix(s, "tmk: wire decode:") {
				panic(r)
			}
		}
	}()
	decode(b, m)
	return true
}
