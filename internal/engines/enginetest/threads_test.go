package enginetest

import (
	"fmt"
	"testing"

	"hipa/internal/engines/bppr"
	"hipa/internal/engines/common"
	"hipa/internal/engines/delta"
	"hipa/internal/engines/gpop"
	"hipa/internal/engines/hipa"
	"hipa/internal/engines/polymer"
	"hipa/internal/engines/ppr"
	"hipa/internal/engines/vpr"
	"hipa/internal/gen"
	"hipa/internal/graph"
)

// TestThreadsInvariance: the ranks of every deterministic engine are a
// function of the graph and the iteration options alone — bitwise equal at
// 2, 4, 8, 20 and 40 threads, drained by one or two goroutines. Serving's
// default thread count follows GOMAXPROCS, so served ranks rely on this.
// The graphs are a skewed one of eight partitions, where partition, group
// and pull-slice boundaries all move with the thread count, and one that is
// a single partition, whose pull is cut into per-thread chunk ranges.
func TestThreadsInvariance(t *testing.T) {
	multi, err := gen.RMAT(gen.RMATConfig{Scale: 12, EdgeFactor: 16, A: 0.57, B: 0.19, C: 0.19, D: 0.05, Seed: 3, Noise: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	one, err := gen.PowerLaw(gen.PowerLawConfig{Vertices: 3000, Edges: 40000, OutAlpha: 2.1, InAlpha: 0.9, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	engines := []common.Engine{hipa.Engine{}, ppr.Engine{}, vpr.Engine{}, gpop.Engine{}, polymer.Engine{},
		delta.Engine{}, bppr.Engine{}}
	for _, gc := range []struct {
		name      string
		g         *graph.Graph
		partBytes int
		parts     int
	}{
		{"eight-partitions", multi, 2 << 10, 8},
		{"one-partition", one, 64 << 10, 1},
	} {
		for _, eng := range engines {
			t.Run(gc.name+"/"+eng.Name(), func(t *testing.T) {
				var base *common.Result
				var baseName string
				for _, threads := range []int{2, 4, 8, 20, 40} {
					for _, procs := range []int{1, 2} {
						o := testOptions(20)
						o.PartitionBytes = gc.partBytes
						o.Threads = threads
						o.GoParallelism = procs
						prep, err := eng.Prepare(gc.g, o)
						if err != nil {
							t.Fatal(err)
						}
						if part := prep.Partition(); part != nil && part.Hier.NumPartitions() != gc.parts {
							t.Fatalf("%d partitions, want %d", part.Hier.NumPartitions(), gc.parts)
						}
						res, err := eng.Exec(prep, o)
						if err != nil {
							t.Fatal(err)
						}
						name := fmt.Sprintf("threads %d procs %d", threads, procs)
						if base == nil {
							base, baseName = res, name
							continue
						}
						if d := common.MaxAbsDiff(base.Ranks, res.Ranks); d != 0 || ranksFNV64(base.Ranks) != ranksFNV64(res.Ranks) {
							t.Errorf("ranks at %s differ from %s by up to %g (must be bit-identical)", name, baseName, d)
						}
						if res.Iterations != base.Iterations {
							t.Errorf("%d iterations at %s, %d at %s", res.Iterations, name, base.Iterations, baseName)
						}
					}
				}
			})
		}
	}
}
