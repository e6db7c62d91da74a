package enginetest

import (
	"fmt"
	"math"
	"testing"

	"hipa/internal/engines/bppr"
	"hipa/internal/engines/delta"
	"hipa/internal/graph"
)

// TestPushSwitchPinned pins where the push/pull switches fire: Delta-PR's
// pushing partition-iterations in the two frontier-golden cases (which
// never push) and on the fan and skewed graphs of the scatter tests (which
// do) and on a heavy-tailed graph whose pushes sit near the switch's
// threshold, and the push iterations of width-1 B-PPR queries on the
// frontier-golden graph under the first golden case's options. Both
// directions of either switch give the same
// bits, so no rank golden notices a switch that moved; this test does. The
// switches weigh a push against a pull's entries, padding included, not
// against the bytes of its encoded index stream.
func TestPushSwitchPinned(t *testing.T) {
	g := frontierGraph()
	want := map[string]int64{
		"skylake/Delta-PR":      0,
		"haswell/Delta-PR":      0,
		"fan/delta-pr":          44,
		"skewed/delta-pr":       0,
		"heavy-tailed/delta-pr": 12,
		"bppr seeds [0]":        4,
		"bppr seeds [1234]":     4,
		"bppr seeds [7 1500]":   3,
	}
	got := map[string]int64{}
	cases := frontierGoldenCases()
	for _, c := range cases {
		res, err := c.engine.Run(g, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.key, err)
		}
		got[c.key] = res.Frontier.PushPartitionIterations
	}
	for _, gc := range []struct {
		name string
		g    *graph.Graph
	}{{"fan", fanGraph(8, 1)}, {"skewed", sparseStartGraph(3000, 1)}, {"heavy-tailed", heavyTailedGraph(6000, 7)}} {
		res, err := (delta.Engine{}).Run(gc.g, deltaRefOptions(8, 1e-6))
		if err != nil {
			t.Fatal(err)
		}
		got[gc.name+"/delta-pr"] = res.Frontier.PushPartitionIterations
	}
	o := cases[0].opts
	prep, err := (bppr.Engine{}).Prepare(g, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, seeds := range [][]graph.VertexID{{0}, {1234}, {7, 1500}} {
		br, err := bppr.ExecBatch(prep, o, []bppr.Query{{Seeds: seeds}})
		if err != nil {
			t.Fatal(err)
		}
		got[fmt.Sprintf("bppr seeds %v", seeds)] = int64(br.PushIterations)
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: %d pushes, want %d", k, got[k], w)
		}
	}
}

// heavyTailedGraph is a fixture drawn from an LCG, so it is the same on
// every host: Pareto(1.2) out-degrees (at least 2, at most n/4) and
// destinations drawn as n·u^4, so low IDs collect most in-edges.
func heavyTailedGraph(n int, seed uint64) *graph.Graph {
	b := graph.NewBuilder(n)
	x := seed*0x9E3779B97F4A7C15 + 1
	next := func() float64 {
		x = x*6364136223846793005 + 1442695040888963407
		return float64(x>>11) / (1 << 53)
	}
	for v := 0; v < n; v++ {
		deg := int(math.Min(float64(n/4), math.Floor(2*math.Pow(1-next(), -1/1.2))))
		for range deg {
			d := int(float64(n) * math.Pow(next(), 4))
			b.AddEdge(graph.VertexID(v), graph.VertexID(d%n))
		}
	}
	return b.Build()
}
