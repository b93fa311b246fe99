package harness

import (
	"runtime"
	"testing"

	"repro/internal/core"
)

// faultScale keeps the fault-conformance workloads tiny: correctness
// under loss is the point, not the modeled numbers.
const faultScale = 0.01

// faultBackends is the reliability surface under test: the TreadMarks
// RPC layer (lazy and eager invalidate variants exercise different
// request/reply traffic) and PVM's stream transport.
func faultBackends() []core.Backend {
	return []core.Backend{core.TMK, TMKEager, core.PVM}
}

// checkApp runs one backend on one fault scenario and verifies the
// app's own output check — the end-to-end proof that every message the
// fault layer killed was recovered.
func checkApp(t *testing.T, app core.App, b core.Backend, sc core.Scenario) {
	t.Helper()
	if _, err := b.Run(app, sc); err != nil {
		t.Fatalf("%s/%s/%s n=%d: %v", app.Name(), b.Name(), sc.Name, sc.Procs, err)
	}
	if err := app.Check(); err != nil {
		t.Errorf("%s/%s/%s n=%d output check: %v", app.Name(), b.Name(), sc.Name, sc.Procs, err)
	}
}

// TestFaultConformance runs every registered app under every reliability
// backend at 5% seeded message loss across the paper's processor counts:
// all runs must complete and produce output identical to the app's own
// sequential run.
func TestFaultConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full app x backend x procs cross product under loss")
	}
	for _, app := range Apps(faultScale) {
		if _, err := core.Seq.Run(app, core.Base(1)); err != nil {
			t.Fatalf("%s seq: %v", app.Name(), err)
		}
		for _, b := range faultBackends() {
			for _, n := range []int{2, 4, 8} {
				checkApp(t, app, b, LossScenarios(n, 0.05)[0])
			}
		}
	}
}

// TestFaultRateSweep covers the rest of the fault axes — light and heavy
// loss, duplication, reordering, a healing partition — on a representative
// app subset (one barrier-heavy, one lock-heavy, one master/slave).
func TestFaultRateSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-axis sweep")
	}
	const n = 4
	scenarios := []core.Scenario{
		LossScenarios(n, 0.01)[0],
		LossScenarios(n, 0.20)[0],
		DupScenarios(n, 0.05)[0],
		ReorderScenarios(n, 0.05)[0],
		PartitionScenarios(n)[0],
	}
	for _, name := range []string{"SOR-Zero", "IS-Small", "QSORT"} {
		app := Find(Apps(faultScale), name)
		if app == nil {
			t.Fatalf("experiment %q not registered", name)
		}
		if _, err := core.Seq.Run(app, core.Base(1)); err != nil {
			t.Fatalf("%s seq: %v", app.Name(), err)
		}
		for _, b := range faultBackends() {
			for _, sc := range scenarios {
				checkApp(t, app, b, sc)
			}
		}
	}
}

// TestFaultSmoke is the -short slice of the conformance net: one
// barrier-heavy and one master/slave app at 5% loss and a partition.
func TestFaultSmoke(t *testing.T) {
	for _, name := range []string{"SOR-Zero", "QSORT"} {
		app := Find(Apps(faultScale), name)
		if app == nil {
			t.Fatalf("experiment %q not registered", name)
		}
		if _, err := core.Seq.Run(app, core.Base(1)); err != nil {
			t.Fatalf("%s seq: %v", app.Name(), err)
		}
		for _, b := range faultBackends() {
			checkApp(t, app, b, LossScenarios(4, 0.05)[0])
			checkApp(t, app, b, PartitionScenarios(4)[0])
		}
	}
}

// TestFaultCausalAdmission pins the cell that once broke the
// transitive closure of interval timestamps: under eager invalidation
// and heavy loss, a write notice can outrun the loss of another
// writer's causally-earlier notice, and admitting it early poisons the
// next interval's timestamp (minimalCover's dominance argument then
// picks servers that cannot cover every missing diff).  Causal
// admission in admitRecord buffers such notices; this run panicked
// before that check existed.
func TestFaultCausalAdmission(t *testing.T) {
	app := Find(Apps(0.05), "Water-1728")
	if app == nil {
		t.Fatal("experiment Water-1728 not registered")
	}
	if _, err := core.Seq.Run(app, core.Base(1)); err != nil {
		t.Fatalf("seq: %v", err)
	}
	checkApp(t, app, TMKEager, LossScenarios(8, 0.20)[0])
}

// faultMetric is a lossy cell's pinned outcome: the paper's triple plus
// the fault layer's own counters, which move whenever a reliability
// change alters what is dropped, retransmitted or timed out.
type faultMetric struct {
	time, msgs, bytes, dropped, retrans int64
	timeouts                            int
}

// TestFaultGolden pins the at-least-once layers under every fault axis
// the way TestGoldenMetrics pins the fault-free protocol: six apps under
// tmk and tmk-sc over loss, dup, reorder and partition at 4 processors.
// The lock-heavy cells drive every TreadMarks role hard (QSORT under tmk
// at 20 % duplication retransmits thousands of times).  The selection is
// cmd/goldgen's faultSelection; regenerate with `go run ./cmd/goldgen
// -format faults` only when a change is supposed to alter the model.
func TestFaultGolden(t *testing.T) {
	g, err := Selection{
		Apps:      []string{"sor-zero", "is-small", "qsort", "tsp", "water-288", "ep"},
		Backends:  []string{"tmk", "tmk-sc"},
		Scenarios: []string{"loss", "dup", "reorder", "partition"},
		NProcs:    []int{4},
	}.Resolve(0.05)
	if err != nil {
		t.Fatal(err)
	}
	g.Workers = 2 // the records do not depend on the width
	recs, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(faultGolden) {
		t.Fatalf("%d cells, %d pinned", len(recs), len(faultGolden))
	}
	for _, r := range recs {
		key := r.App + "/" + r.Backend + "/" + r.Scenario
		got := faultMetric{time: r.TimeNS, msgs: r.Messages, bytes: r.Bytes,
			dropped: r.Dropped, retrans: r.Retrans, timeouts: r.Timeouts}
		if want, ok := faultGolden[key]; !ok || got != want {
			t.Errorf("%s: got %+v, want %+v", key, got, want)
		}
	}
}

// TestFaultGoldenDeterminism pins one fault scenario and requires the
// grid worker pool to reproduce the serial records byte for byte — the
// fault layer's determinism contract holds however jobs are scheduled,
// recovery traffic included.
func TestFaultGoldenDeterminism(t *testing.T) {
	apps := []core.App{}
	for _, name := range []string{"SOR-Zero", "IS-Small", "QSORT"} {
		app := Find(Apps(faultScale), name)
		if app == nil {
			t.Fatalf("experiment %q not registered", name)
		}
		apps = append(apps, app)
	}
	mk := func(workers int) Grid {
		scs := append(LossScenarios(2, 0.05), LossScenarios(4, 0.05)...)
		scs = append(scs, PartitionScenarios(4)...)
		return Grid{
			Apps:      apps,
			Backends:  []core.Backend{core.TMK, core.PVM},
			Scenarios: scs,
			Workers:   workers,
		}
	}
	want, err := mk(0).Run()
	if err != nil {
		t.Fatal(err)
	}
	var sawRecovery bool
	for _, r := range want {
		if r.Dropped > 0 && r.Retrans > 0 {
			sawRecovery = true
		}
	}
	if !sawRecovery {
		t.Fatal("pinned fault grid produced no drop/retransmit activity")
	}
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	got, err := mk(workers).Run()
	if err != nil {
		t.Fatalf("grid-workers: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("grid-workers: %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("grid-workers record %d:\ngot  %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

var faultGolden = map[string]faultMetric{
	"SOR-Zero/tmk/loss=0.01":        {time: 211188796, msgs: 116, bytes: 10353, dropped: 0, retrans: 3, timeouts: 7},
	"SOR-Zero/tmk/loss=0.05":        {time: 220000304, msgs: 110, bytes: 10009, dropped: 6, retrans: 12, timeouts: 15},
	"SOR-Zero/tmk/loss=0.2":         {time: 316917576, msgs: 96, bytes: 8997, dropped: 31, retrans: 45, timeouts: 44},
	"SOR-Zero/tmk/dup=0.01":         {time: 211188796, msgs: 116, bytes: 10353, dropped: 0, retrans: 3, timeouts: 7},
	"SOR-Zero/tmk/dup=0.05":         {time: 211188796, msgs: 116, bytes: 10353, dropped: 0, retrans: 7, timeouts: 7},
	"SOR-Zero/tmk/dup=0.2":          {time: 211188796, msgs: 116, bytes: 10353, dropped: 0, retrans: 21, timeouts: 7},
	"SOR-Zero/tmk/reorder=0.05":     {time: 221745311, msgs: 116, bytes: 10353, dropped: 0, retrans: 7, timeouts: 12},
	"SOR-Zero/tmk/reorder=0.2":      {time: 222838869, msgs: 116, bytes: 10353, dropped: 0, retrans: 6, timeouts: 10},
	"SOR-Zero/tmk/partition":        {time: 211188796, msgs: 116, bytes: 10353, dropped: 0, retrans: 3, timeouts: 7},
	"SOR-Zero/tmk-sc/loss=0.01":     {time: 213196588, msgs: 176, bytes: 15273, dropped: 0, retrans: 3, timeouts: 7},
	"SOR-Zero/tmk-sc/loss=0.05":     {time: 223415412, msgs: 169, bytes: 14783, dropped: 7, retrans: 9, timeouts: 15},
	"SOR-Zero/tmk-sc/loss=0.2":      {time: 497547416, msgs: 136, bytes: 12086, dropped: 56, retrans: 81, timeouts: 73},
	"SOR-Zero/tmk-sc/dup=0.01":      {time: 213196588, msgs: 176, bytes: 15273, dropped: 0, retrans: 3, timeouts: 7},
	"SOR-Zero/tmk-sc/dup=0.05":      {time: 213196588, msgs: 176, bytes: 15273, dropped: 0, retrans: 7, timeouts: 7},
	"SOR-Zero/tmk-sc/dup=0.2":       {time: 213346924, msgs: 176, bytes: 15273, dropped: 0, retrans: 28, timeouts: 7},
	"SOR-Zero/tmk-sc/reorder=0.05":  {time: 220989747, msgs: 176, bytes: 15273, dropped: 0, retrans: 7, timeouts: 9},
	"SOR-Zero/tmk-sc/reorder=0.2":   {time: 224827496, msgs: 176, bytes: 15273, dropped: 0, retrans: 5, timeouts: 11},
	"SOR-Zero/tmk-sc/partition":     {time: 213196588, msgs: 176, bytes: 15273, dropped: 0, retrans: 3, timeouts: 7},
	"IS-Small/tmk/loss=0.01":        {time: 43680412, msgs: 75, bytes: 17313, dropped: 0, retrans: 6, timeouts: 5},
	"IS-Small/tmk/loss=0.05":        {time: 55554844, msgs: 77, bytes: 17274, dropped: 5, retrans: 12, timeouts: 11},
	"IS-Small/tmk/loss=0.2":         {time: 210384624, msgs: 63, bytes: 13557, dropped: 23, retrans: 52, timeouts: 47},
	"IS-Small/tmk/dup=0.01":         {time: 43680412, msgs: 75, bytes: 17313, dropped: 0, retrans: 6, timeouts: 5},
	"IS-Small/tmk/dup=0.05":         {time: 43680412, msgs: 75, bytes: 17313, dropped: 0, retrans: 12, timeouts: 5},
	"IS-Small/tmk/dup=0.2":          {time: 44477976, msgs: 75, bytes: 17313, dropped: 0, retrans: 27, timeouts: 5},
	"IS-Small/tmk/reorder=0.05":     {time: 52043159, msgs: 75, bytes: 17274, dropped: 0, retrans: 10, timeouts: 7},
	"IS-Small/tmk/reorder=0.2":      {time: 57382390, msgs: 80, bytes: 17568, dropped: 0, retrans: 11, timeouts: 10},
	"IS-Small/tmk/partition":        {time: 68346524, msgs: 74, bytes: 17251, dropped: 3, retrans: 9, timeouts: 13},
	"IS-Small/tmk-sc/loss=0.01":     {time: 45883412, msgs: 99, bytes: 19281, dropped: 0, retrans: 9, timeouts: 6},
	"IS-Small/tmk-sc/loss=0.05":     {time: 58543880, msgs: 99, bytes: 18309, dropped: 6, retrans: 18, timeouts: 16},
	"IS-Small/tmk-sc/loss=0.2":      {time: 89807860, msgs: 76, bytes: 15047, dropped: 27, retrans: 39, timeouts: 30},
	"IS-Small/tmk-sc/dup=0.01":      {time: 45883412, msgs: 99, bytes: 19281, dropped: 0, retrans: 9, timeouts: 6},
	"IS-Small/tmk-sc/dup=0.05":      {time: 45883412, msgs: 99, bytes: 19281, dropped: 0, retrans: 12, timeouts: 6},
	"IS-Small/tmk-sc/dup=0.2":       {time: 46485808, msgs: 99, bytes: 19281, dropped: 0, retrans: 26, timeouts: 6},
	"IS-Small/tmk-sc/reorder=0.05":  {time: 54884575, msgs: 99, bytes: 19269, dropped: 0, retrans: 10, timeouts: 8},
	"IS-Small/tmk-sc/reorder=0.2":   {time: 56404224, msgs: 104, bytes: 19536, dropped: 0, retrans: 11, timeouts: 8},
	"IS-Small/tmk-sc/partition":     {time: 70141508, msgs: 95, bytes: 18973, dropped: 6, retrans: 12, timeouts: 14},
	"QSORT/tmk/loss=0.01":           {time: 2136727822, msgs: 9671, bytes: 2206427, dropped: 103, retrans: 1174, timeouts: 631},
	"QSORT/tmk/loss=0.05":           {time: 2913312804, msgs: 8184, bytes: 1946430, dropped: 524, retrans: 1811, timeouts: 1154},
	"QSORT/tmk/loss=0.2":            {time: 6973502650, msgs: 2300, bytes: 1208138, dropped: 1058, retrans: 2337, timeouts: 1627},
	"QSORT/tmk/dup=0.01":            {time: 2076356434, msgs: 10840, bytes: 2294227, dropped: 0, retrans: 1149, timeouts: 496},
	"QSORT/tmk/dup=0.05":            {time: 2083159124, msgs: 10770, bytes: 2292115, dropped: 0, retrans: 1915, timeouts: 505},
	"QSORT/tmk/dup=0.2":             {time: 2112980584, msgs: 10653, bytes: 2286190, dropped: 0, retrans: 4585, timeouts: 521},
	"QSORT/tmk/reorder=0.05":        {time: 3095672680, msgs: 10506, bytes: 2274757, dropped: 0, retrans: 2195, timeouts: 1214},
	"QSORT/tmk/reorder=0.2":         {time: 4010096610, msgs: 10536, bytes: 2279038, dropped: 0, retrans: 2393, timeouts: 1419},
	"QSORT/tmk/partition":           {time: 2087644120, msgs: 10753, bytes: 2289436, dropped: 5, retrans: 1033, timeouts: 509},
	"QSORT/tmk-sc/loss=0.01":        {time: 2893523584, msgs: 16055, bytes: 2706489, dropped: 169, retrans: 2141, timeouts: 1124},
	"QSORT/tmk-sc/loss=0.05":        {time: 4111838748, msgs: 14477, bytes: 2522768, dropped: 938, retrans: 2653, timeouts: 1617},
	"QSORT/tmk-sc/loss=0.2":         {time: 17978075662, msgs: 10595, bytes: 2055338, dropped: 3808, retrans: 6159, timeouts: 4242},
	"QSORT/tmk-sc/dup=0.01":         {time: 2642145786, msgs: 16269, bytes: 2736528, dropped: 0, retrans: 2224, timeouts: 990},
	"QSORT/tmk-sc/dup=0.05":         {time: 2622915812, msgs: 16238, bytes: 2741579, dropped: 0, retrans: 3079, timeouts: 963},
	"QSORT/tmk-sc/dup=0.2":          {time: 2633135624, msgs: 16199, bytes: 2735850, dropped: 0, retrans: 6676, timeouts: 918},
	"QSORT/tmk-sc/reorder=0.05":     {time: 3624043411, msgs: 16240, bytes: 2740316, dropped: 0, retrans: 2398, timeouts: 1363},
	"QSORT/tmk-sc/reorder=0.2":      {time: 4483956222, msgs: 16212, bytes: 2740187, dropped: 0, retrans: 2558, timeouts: 1514},
	"QSORT/tmk-sc/partition":        {time: 2669104156, msgs: 16267, bytes: 2736065, dropped: 6, retrans: 2023, timeouts: 1001},
	"TSP/tmk/loss=0.01":             {time: 866452424, msgs: 2490, bytes: 310391, dropped: 29, retrans: 464, timeouts: 298},
	"TSP/tmk/loss=0.05":             {time: 1253827052, msgs: 2372, bytes: 298148, dropped: 146, retrans: 743, timeouts: 478},
	"TSP/tmk/loss=0.2":              {time: 8690871360, msgs: 1853, bytes: 248822, dropped: 943, retrans: 2318, timeouts: 1594},
	"TSP/tmk/dup=0.01":              {time: 771616936, msgs: 2514, bytes: 312457, dropped: 0, retrans: 424, timeouts: 247},
	"TSP/tmk/dup=0.05":              {time: 773790500, msgs: 2514, bytes: 312457, dropped: 0, retrans: 575, timeouts: 246},
	"TSP/tmk/dup=0.2":               {time: 774630440, msgs: 2514, bytes: 312457, dropped: 0, retrans: 1202, timeouts: 247},
	"TSP/tmk/reorder=0.05":          {time: 1130650798, msgs: 2517, bytes: 312583, dropped: 0, retrans: 595, timeouts: 356},
	"TSP/tmk/reorder=0.2":           {time: 1455664418, msgs: 2521, bytes: 312815, dropped: 0, retrans: 765, timeouts: 483},
	"TSP/tmk/partition":             {time: 791410464, msgs: 2518, bytes: 312489, dropped: 5, retrans: 389, timeouts: 255},
	"TSP/tmk-sc/loss=0.01":          {time: 951157452, msgs: 3244, bytes: 368978, dropped: 38, retrans: 492, timeouts: 313},
	"TSP/tmk-sc/loss=0.05":          {time: 1376319380, msgs: 3123, bytes: 370758, dropped: 193, retrans: 816, timeouts: 516},
	"TSP/tmk-sc/loss=0.2":           {time: 7533238012, msgs: 2073, bytes: 275173, dropped: 893, retrans: 1809, timeouts: 1253},
	"TSP/tmk-sc/dup=0.01":           {time: 863957244, msgs: 3279, bytes: 385875, dropped: 0, retrans: 430, timeouts: 248},
	"TSP/tmk-sc/dup=0.05":           {time: 864152056, msgs: 3279, bytes: 385823, dropped: 0, retrans: 609, timeouts: 248},
	"TSP/tmk-sc/dup=0.2":            {time: 865368588, msgs: 3279, bytes: 385823, dropped: 0, retrans: 1343, timeouts: 248},
	"TSP/tmk-sc/reorder=0.05":       {time: 1228939095, msgs: 3283, bytes: 386879, dropped: 0, retrans: 732, timeouts: 424},
	"TSP/tmk-sc/reorder=0.2":        {time: 1566952788, msgs: 3284, bytes: 386889, dropped: 0, retrans: 769, timeouts: 493},
	"TSP/tmk-sc/partition":          {time: 887087420, msgs: 3282, bytes: 386173, dropped: 7, retrans: 393, timeouts: 259},
	"Water-288/tmk/loss=0.01":       {time: 336679364, msgs: 191, bytes: 165592, dropped: 0, retrans: 2, timeouts: 2},
	"Water-288/tmk/loss=0.05":       {time: 381232000, msgs: 177, bytes: 138185, dropped: 12, retrans: 31, timeouts: 28},
	"Water-288/tmk/loss=0.2":        {time: 509464772, msgs: 131, bytes: 145586, dropped: 52, retrans: 87, timeouts: 74},
	"Water-288/tmk/dup=0.01":        {time: 336679364, msgs: 191, bytes: 165592, dropped: 0, retrans: 2, timeouts: 2},
	"Water-288/tmk/dup=0.05":        {time: 337100232, msgs: 191, bytes: 165592, dropped: 0, retrans: 7, timeouts: 2},
	"Water-288/tmk/dup=0.2":         {time: 337603148, msgs: 191, bytes: 165592, dropped: 0, retrans: 40, timeouts: 2},
	"Water-288/tmk/reorder=0.05":    {time: 348729557, msgs: 196, bytes: 165790, dropped: 0, retrans: 2, timeouts: 3},
	"Water-288/tmk/reorder=0.2":     {time: 363075044, msgs: 198, bytes: 165891, dropped: 0, retrans: 11, timeouts: 11},
	"Water-288/tmk/partition":       {time: 336679364, msgs: 191, bytes: 165592, dropped: 0, retrans: 2, timeouts: 2},
	"Water-288/tmk-sc/loss=0.01":    {time: 344619368, msgs: 314, bytes: 179934, dropped: 0, retrans: 2, timeouts: 2},
	"Water-288/tmk-sc/loss=0.05":    {time: 364625168, msgs: 268, bytes: 165386, dropped: 17, retrans: 26, timeouts: 20},
	"Water-288/tmk-sc/loss=0.2":     {time: 719465864, msgs: 225, bytes: 138028, dropped: 83, retrans: 122, timeouts: 95},
	"Water-288/tmk-sc/dup=0.01":     {time: 344422180, msgs: 314, bytes: 179898, dropped: 0, retrans: 5, timeouts: 2},
	"Water-288/tmk-sc/dup=0.05":     {time: 345119528, msgs: 316, bytes: 183516, dropped: 0, retrans: 18, timeouts: 3},
	"Water-288/tmk-sc/dup=0.2":      {time: 345659732, msgs: 316, bytes: 179992, dropped: 0, retrans: 68, timeouts: 3},
	"Water-288/tmk-sc/reorder=0.05": {time: 355289061, msgs: 302, bytes: 178826, dropped: 0, retrans: 6, timeouts: 5},
	"Water-288/tmk-sc/reorder=0.2":  {time: 365100088, msgs: 278, bytes: 181286, dropped: 0, retrans: 9, timeouts: 10},
	"Water-288/tmk-sc/partition":    {time: 344619368, msgs: 314, bytes: 179934, dropped: 0, retrans: 2, timeouts: 2},
	"EP/tmk/loss=0.01":              {time: 11077698044, msgs: 22, bytes: 2529, dropped: 0, retrans: 0, timeouts: 1},
	"EP/tmk/loss=0.05":              {time: 11080988568, msgs: 21, bytes: 2411, dropped: 2, retrans: 5, timeouts: 4},
	"EP/tmk/loss=0.2":               {time: 11333863608, msgs: 19, bytes: 2283, dropped: 13, retrans: 33, timeouts: 30},
	"EP/tmk/dup=0.01":               {time: 11077698044, msgs: 22, bytes: 2529, dropped: 0, retrans: 0, timeouts: 1},
	"EP/tmk/dup=0.05":               {time: 11077698044, msgs: 22, bytes: 2529, dropped: 0, retrans: 0, timeouts: 1},
	"EP/tmk/dup=0.2":                {time: 11077973180, msgs: 22, bytes: 2529, dropped: 0, retrans: 7, timeouts: 1},
	"EP/tmk/reorder=0.05":           {time: 11080386673, msgs: 22, bytes: 2529, dropped: 0, retrans: 3, timeouts: 2},
	"EP/tmk/reorder=0.2":            {time: 11080085039, msgs: 22, bytes: 2529, dropped: 0, retrans: 0, timeouts: 1},
	"EP/tmk/partition":              {time: 11077698044, msgs: 22, bytes: 2529, dropped: 0, retrans: 0, timeouts: 1},
	"EP/tmk-sc/loss=0.01":           {time: 11078882084, msgs: 34, bytes: 3513, dropped: 0, retrans: 0, timeouts: 1},
	"EP/tmk-sc/loss=0.05":           {time: 11082825788, msgs: 33, bytes: 3459, dropped: 1, retrans: 5, timeouts: 4},
	"EP/tmk-sc/loss=0.2":            {time: 11118248408, msgs: 24, bytes: 2511, dropped: 13, retrans: 22, timeouts: 15},
	"EP/tmk-sc/dup=0.01":            {time: 11078882084, msgs: 34, bytes: 3513, dropped: 0, retrans: 0, timeouts: 1},
	"EP/tmk-sc/dup=0.05":            {time: 11078882084, msgs: 34, bytes: 3513, dropped: 0, retrans: 1, timeouts: 1},
	"EP/tmk-sc/dup=0.2":             {time: 11079158820, msgs: 34, bytes: 3513, dropped: 0, retrans: 9, timeouts: 1},
	"EP/tmk-sc/reorder=0.05":        {time: 11082553161, msgs: 34, bytes: 3513, dropped: 0, retrans: 3, timeouts: 3},
	"EP/tmk-sc/reorder=0.2":         {time: 11081357854, msgs: 34, bytes: 3513, dropped: 0, retrans: 5, timeouts: 3},
	"EP/tmk-sc/partition":           {time: 11078882084, msgs: 34, bytes: 3513, dropped: 0, retrans: 0, timeouts: 1},
}
