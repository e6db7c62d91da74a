package layout

import (
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"

	"hipa/internal/graph"
	"hipa/internal/partition"
)

// randomVersioned builds a random graph, applies a few random mutation
// batches, and returns the versioned wrapper.
func randomVersioned(t *testing.T, seed uint64, n, edges int) *graph.Versioned {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0))
	b := graph.NewBuilder(n)
	b.Dedup = true
	for i := 0; i < edges; i++ {
		b.AddEdge(graph.VertexID(rng.IntN(n)), graph.VertexID(rng.IntN(n)))
	}
	return graph.NewVersioned(b.Build())
}

func randomBatch(rng *rand.Rand, n, size int) []graph.Mutation {
	muts := make([]graph.Mutation, size)
	for i := range muts {
		muts[i] = graph.Mutation{
			Op:  graph.MutOp(rng.IntN(2)),
			Src: graph.VertexID(rng.IntN(n)),
			Dst: graph.VertexID(rng.IntN(n)),
		}
	}
	return muts
}

// touchedPartitions maps a delta's touched vertices to sorted partition IDs.
func touchedPartitions(d *graph.Delta, h *partition.Hierarchy) []int {
	seen := map[int]bool{}
	for _, v := range d.Touched {
		seen[h.PartitionOfVertex(v)] = true
	}
	out := make([]int, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// TestPatchEqualsBuild replays random mutation batches and checks that the
// spliced layout is bit-identical to a cold Build at every version, for both
// compressed and uncompressed layouts and several partition sizes. Every
// batch holds mutations whose two ends lie in different partitions, so the
// inter pull of partitions no touched source belongs to changes too.
func TestPatchEqualsBuild(t *testing.T) {
	const n, edges = 600, 3000
	for _, compress := range []bool{true, false} {
		for _, partBytes := range []int{256, 1024} {
			vg := randomVersioned(t, 42, n, edges)
			rng := rand.New(rand.NewPCG(7, 0))
			cfg := partition.Config{PartitionBytes: partBytes, BytesPerVertex: 4, NumNodes: 2, GroupsPerNode: 2}

			prevVer := vg.Version()
			prevG := vg.Snapshot()
			prevH, err := partition.Build(prevG, cfg)
			if err != nil {
				t.Fatal(err)
			}
			prevL, err := Build(prevG, prevH, compress)
			if err != nil {
				t.Fatal(err)
			}
			for batch := 0; batch < 5; batch++ {
				muts := randomBatch(rng, n, 40)
				crossing := 0
				for _, m := range muts {
					if prevH.PartitionOfVertex(m.Src) != prevH.PartitionOfVertex(m.Dst) {
						crossing++
					}
				}
				if crossing == 0 {
					t.Fatalf("batch %d has no mutation across partitions", batch)
				}
				ver, err := vg.ApplyBatch(muts)
				if err != nil {
					t.Fatal(err)
				}
				d, err := vg.DeltaBetween(prevVer, ver)
				if err != nil {
					t.Fatal(err)
				}
				h, err := partition.Advance(prevH, d.Next, touchedPartitions(d, prevH))
				if err != nil {
					t.Fatal(err)
				}
				coldH, err := partition.Build(d.Next, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(h, coldH) {
					t.Fatalf("compress=%v partBytes=%d batch %d: advanced hierarchy differs from cold build", compress, partBytes, batch)
				}
				got, err := Patch(prevL, d.Next, h, touchedPartitions(d, prevH))
				if err != nil {
					t.Fatal(err)
				}
				want, err := Build(d.Next, h, compress)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("compress=%v partBytes=%d batch %d: patched layout differs from cold build", compress, partBytes, batch)
				}
				if reflect.DeepEqual(got.InterPull, prevL.InterPull) {
					t.Fatalf("compress=%v partBytes=%d batch %d: the batch left the inter pull as it was", compress, partBytes, batch)
				}
				if err := got.Validate(d.Next, h); err != nil {
					t.Fatal(err)
				}
				prevVer, prevG, prevH, prevL = ver, d.Next, h, got
			}
			_ = prevG
		}
	}
}

// TestPatchRejectsBadInput covers the error paths.
func TestPatchRejectsBadInput(t *testing.T) {
	vg := randomVersioned(t, 1, 100, 300)
	g := vg.Snapshot()
	cfg := partition.Config{PartitionBytes: 64, BytesPerVertex: 4, NumNodes: 2}
	h, err := partition.Build(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Build(g, h, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Patch(l, g, h, []int{3, 1}); err == nil {
		t.Fatal("unsorted touched list must be rejected")
	}
	if _, err := Patch(l, g, h, []int{h.NumPartitions()}); err == nil {
		t.Fatal("out-of-range partition must be rejected")
	}
	// 15 vertices per partition instead of 16: as many partitions, other
	// sizes, so the old pull chunks would not fit.
	h15, err := partition.Build(g, partition.Config{PartitionBytes: 60, BytesPerVertex: 4, NumNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if h15.NumPartitions() != h.NumPartitions() {
		t.Fatalf("fixture: %d and %d partitions, want equal counts", h15.NumPartitions(), h.NumPartitions())
	}
	if _, err := Patch(l, g, h15, nil); err == nil {
		t.Fatal("a hierarchy of other partition sizes must be rejected")
	}
}

// TestDecodeRoundTrip: for compressed and uncompressed layouts, before and
// after a Patch, the inter pull's entries yield exactly the graph's
// inter-edge (source, destination) multiset.
func TestDecodeRoundTrip(t *testing.T) {
	const n, edges = 600, 3000
	for _, compress := range []bool{true, false} {
		vg := randomVersioned(t, 11, n, edges)
		rng := rand.New(rand.NewPCG(5, 0))
		cfg := partition.Config{PartitionBytes: 256, BytesPerVertex: 4, NumNodes: 2, GroupsPerNode: 2}
		g := vg.Snapshot()
		h, err := partition.Build(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		l, err := Build(g, h, compress)
		if err != nil {
			t.Fatal(err)
		}
		if !sameMultiset(decodeBlocks(l, g.NumVertices()), interEdges(g, h)) {
			t.Fatalf("compress=%v: built layout does not decode to the inter-edges", compress)
		}
		prevVer := vg.Version()
		ver, err := vg.ApplyBatch(randomBatch(rng, n, 60))
		if err != nil {
			t.Fatal(err)
		}
		d, err := vg.DeltaBetween(prevVer, ver)
		if err != nil {
			t.Fatal(err)
		}
		nh, err := partition.Advance(h, d.Next, touchedPartitions(d, h))
		if err != nil {
			t.Fatal(err)
		}
		pl, err := Patch(l, d.Next, nh, touchedPartitions(d, h))
		if err != nil {
			t.Fatal(err)
		}
		if !sameMultiset(decodeBlocks(pl, d.Next.NumVertices()), interEdges(d.Next, nh)) {
			t.Fatalf("compress=%v: patched layout does not decode to the inter-edges", compress)
		}
	}
}
