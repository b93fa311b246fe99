package harness

import "testing"

// The strings below are the Table 1 and Table 2 renderings produced by
// the pre-records implementation at goldenScale, captured verbatim.  The
// record-driven renderers must reproduce them byte for byte: the API
// redesign moved where the numbers flow, not what they say.  Regenerate
// only on an intentional model or formatting change.

const goldenTable1 = `Table 1  Sequential Time of Applications (modeled)
Program      Problem Size                          Time(sec)
------------------------------------------------------------
EP           2^28 pairs (model), 419430 generated  88.6     
SOR-Zero     204x1536 f64, 4 sweeps, zero          1.5      
SOR-Nonzero  204x1536 f64, 4 sweeps, nonzero       0.5      
IS-Small     N=104857 Bmax=2^7, 2 iters            0.2      
IS-Large     N=104857 Bmax=2^15, 2 iters           0.7      
TSP          12 cities, threshold 8                0.4      
QSORT        25K integers, bubble 102              0.2      
Water-288    288 molecules, 2 steps                1.2      
Water-1728   512 molecules, 1 steps                2.0      
Barnes-Hut   819 bodies, 2 steps                   1.0      
3D-FFT       16^3 complex, 2 iters                 0.1      
ILINK        synthetic CLP, 2 families             3.4      
`

const goldenTable2 = `Table 2  Messages and Data at 8 Processors
Program      TMK Messages  TMK Kilobytes  PVM Messages  PVM Kilobytes
---------------------------------------------------------------------
EP           50            10             7             1            
SOR-Zero     268           35             63            347          
SOR-Nonzero  268           345            63            347          
IS-Small     184           76             28            14           
IS-Large     2019          5828           28            3670         
TSP          2769          645            530           15           
QSORT        16213         8554           2761          2436         
Water-288    749           588            128           111          
Water-1728   208           215            64            99           
Barnes-Hut   1428          386            112           598          
3D-FFT       252           479            112           115          
ILINK        602           683            28            495          
`

func TestRenderTable1MatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every sequential workload at goldenScale")
	}
	recs, err := Table1Grid(Apps(goldenScale)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if out := RenderTable1(recs); out != goldenTable1 {
		t.Errorf("Table 1 rendering drifted:\ngot:\n%s\nwant:\n%s", out, goldenTable1)
	}
}

func TestRenderTable2MatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every app at 8 procs at goldenScale")
	}
	recs, err := Table2Grid(Apps(goldenScale)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if out := RenderTable2(recs); out != goldenTable2 {
		t.Errorf("Table 2 rendering drifted:\ngot:\n%s\nwant:\n%s", out, goldenTable2)
	}
}
