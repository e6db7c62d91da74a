package common

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"

	"hipa/internal/gen"
	"hipa/internal/graph"
	"hipa/internal/par"
)

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.WithDefaults(40)
	if o.Machine == nil || o.Threads != 40 || o.Iterations != DefaultIterations ||
		o.Damping != DefaultDamping || o.PartitionBytes != DefaultPartitionBytes {
		t.Fatalf("defaults wrong: %+v", o)
	}
	if o.GoParallelism < 1 || o.SchedSeed == 0 {
		t.Fatalf("defaults wrong: %+v", o)
	}
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestOptionsValidate(t *testing.T) {
	bad := []Options{
		{Threads: 0, Iterations: 1, Damping: 0.5, PartitionBytes: 64},
		{Threads: 1, Iterations: 0, Damping: 0.5, PartitionBytes: 64},
		{Threads: 1, Iterations: 1, Damping: 1.5, PartitionBytes: 64},
		{Threads: 1, Iterations: 1, Damping: 0.5, PartitionBytes: 2},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestBarrier(t *testing.T) {
	const parties, rounds = 8, 50
	b := NewBarrier(parties)
	var arrived [parties]atomic.Int64
	var early atomic.Int64
	par.Run(parties, func(tid int) {
		for i := int64(1); i <= rounds; i++ {
			arrived[tid].Store(i)
			b.Wait()
			// Nobody passes round i before everyone has arrived at it.
			for j := range arrived {
				if arrived[j].Load() < i {
					early.Add(1)
				}
			}
		}
	})
	if early.Load() != 0 {
		t.Fatalf("%d parties passed the barrier before every party arrived", early.Load())
	}
}

func TestBarrierLeaderExactlyOne(t *testing.T) {
	const parties = 5
	b := NewBarrier(parties)
	var leaders atomic.Int64
	par.Run(parties, func(tid int) {
		for i := 0; i < 20; i++ {
			if b.Wait() {
				leaders.Add(1)
			}
		}
	})
	if leaders.Load() != 20 {
		t.Fatalf("leaders = %d, want 20 (one per generation)", leaders.Load())
	}
}

func TestNewBarrierPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 0 parties")
		}
	}()
	NewBarrier(0)
}

func TestInitRanksAndSum(t *testing.T) {
	r := InitRanks(1000)
	if s := RankSum(r); math.Abs(s-1) > 1e-4 {
		t.Fatalf("initial rank sum = %f", s)
	}
	if len(InitRanks(0)) != 0 {
		t.Fatal("empty init")
	}
}

func TestInvOutDegrees(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	g := b.Build()
	inv := InvOutDegrees(g)
	if inv[0] != 0.5 || inv[1] != 0 || inv[2] != 0 {
		t.Fatalf("inv = %v", inv)
	}
}

func TestDanglingSum(t *testing.T) {
	ranks := []float32{0.25, 0.25, 0.25, 0.25}
	inv := []float32{0.5, 0, 0, 1}
	if s := DanglingSum(ranks, inv, 0, 4); math.Abs(s-0.5) > 1e-9 {
		t.Fatalf("dangling = %f, want 0.5", s)
	}
	if s := DanglingSum(ranks, inv, 1, 2); math.Abs(s-0.25) > 1e-9 {
		t.Fatalf("partial dangling = %f", s)
	}
}

func TestReferencePageRankProperties(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{Vertices: 500, Edges: 5000, OutAlpha: 2.1, InAlpha: 0.9, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	r := ReferencePageRank(g, 30, 0.85)
	var sum float64
	for _, x := range r {
		if x <= 0 {
			t.Fatal("non-positive rank")
		}
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("rank sum = %.12f, want 1 (dangling mass redistributed)", sum)
	}
}

func TestReferencePageRankKnownValues(t *testing.T) {
	// Two-vertex cycle: symmetric, ranks must both be 0.5.
	b := graph.NewBuilder(2)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	r := ReferencePageRank(b.Build(), 50, 0.85)
	if math.Abs(r[0]-0.5) > 1e-12 || math.Abs(r[1]-0.5) > 1e-12 {
		t.Fatalf("cycle ranks = %v, want [0.5 0.5]", r)
	}
	// Star: 1,2,3 -> 0. Vertex 0 collects; vertices 1-3 identical.
	b2 := graph.NewBuilder(4)
	b2.AddEdge(1, 0)
	b2.AddEdge(2, 0)
	b2.AddEdge(3, 0)
	r2 := ReferencePageRank(b2.Build(), 80, 0.85)
	if !(r2[0] > r2[1]) || math.Abs(r2[1]-r2[2]) > 1e-12 || math.Abs(r2[2]-r2[3]) > 1e-12 {
		t.Fatalf("star ranks = %v", r2)
	}
	var sum float64
	for _, x := range r2 {
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("star rank sum = %f (vertex 0 is dangling)", sum)
	}
}

func TestSplitByWeight(t *testing.T) {
	// Weights 1,1,1,1,10: 2 parts should split before the heavy item.
	prefix := []int64{0, 1, 2, 3, 4, 14}
	b := SplitByWeight(prefix, 2)
	if len(b) != 3 || b[0] != 0 || b[2] != 5 {
		t.Fatalf("bounds = %v", b)
	}
	if b[1] != 4 {
		t.Fatalf("split at %d, want 4 (half of 14 is 7, first prefix >= 7 is index 4)", b[1])
	}
}

func TestSplitByWeightProperty(t *testing.T) {
	f := func(raw []uint8, partsRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		parts := int(partsRaw)%8 + 1
		prefix := make([]int64, len(raw)+1)
		for i, w := range raw {
			prefix[i+1] = prefix[i] + int64(w%10)
		}
		b := SplitByWeight(prefix, parts)
		if len(b) != parts+1 || b[0] != 0 || b[parts] != len(raw) {
			return false
		}
		for i := 1; i <= parts; i++ {
			if b[i] < b[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxAbsDiff(t *testing.T) {
	if d := MaxAbsDiff([]float32{1, 2}, []float32{1, 2.5}); math.Abs(d-0.5) > 1e-9 {
		t.Fatalf("diff = %f", d)
	}
	if d := MaxAbsDiff(nil, nil); d != 0 {
		t.Fatalf("empty vectors: diff = %f, want 0", d)
	}
}

func TestMaxAbsDiffLengthMismatch(t *testing.T) {
	// A length mismatch is not a numeric distance: it must be +Inf so it
	// can never be confused with (or compared against) a real residual.
	for _, pair := range [][2][]float32{
		{{1}, {1, 2}},
		{{1, 2}, {1}},
		{nil, {1}},
		{{1}, nil},
	} {
		d := MaxAbsDiff(pair[0], pair[1])
		if !math.IsInf(d, 1) {
			t.Errorf("MaxAbsDiff(len %d, len %d) = %v, want +Inf", len(pair[0]), len(pair[1]), d)
		}
	}
}

// TestTopKMatchesFullSort pins the one top-k order (rank descending, ties by
// ascending vertex ID) against a stable full sort, across the insertion
// path, the sort path past topKSelectMax, and k beyond the vector length.
func TestTopKMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	tied := make([]float32, 500)
	for i := range tied {
		tied[i] = float32(rng.IntN(40)) / 40 // plenty of ties
	}
	ascending := make([]float32, 500) // every vertex displaces the current tail
	for i := range ascending {
		ascending[i] = float32(i)
	}
	for name, ranks := range map[string][]float32{"tied": tied, "ascending": ascending} {
		want := make([]graph.VertexID, len(ranks))
		for i := range want {
			want[i] = graph.VertexID(i)
		}
		sort.SliceStable(want, func(a, b int) bool { return ranks[want[a]] > ranks[want[b]] })
		if got := RankOrder(ranks); !slices.Equal(got, want) {
			t.Fatalf("%s: RankOrder differs from the stable full sort", name)
		}
		for _, k := range []int{-1, 0, 1, 7, topKSelectMax, topKSelectMax + 1, 499, 500, 900} {
			got := TopK(ranks, k)
			if wantK := want[:max(0, min(k, len(want)))]; !slices.Equal(got, wantK) {
				t.Fatalf("%s: TopK(k=%d) = %v, want %v", name, k, got, wantK)
			}
		}
	}
}
