package graph

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func buildTestGraph(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(5)
	// 0->1, 0->2, 1->2, 2->0, 3->4, 4->3, 4->0
	b.AddEdges([]Edge{{0, 1}, {0, 2}, {1, 2}, {2, 0}, {3, 4}, {4, 3}, {4, 0}})
	return b.Build()
}

func TestBuilderBasic(t *testing.T) {
	g := buildTestGraph(t)
	if g.NumVertices() != 5 {
		t.Fatalf("NumVertices = %d, want 5", g.NumVertices())
	}
	if g.NumEdges() != 7 {
		t.Fatalf("NumEdges = %d, want 7", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if d := g.OutDegree(0); d != 2 {
		t.Errorf("OutDegree(0) = %d, want 2", d)
	}
	if d := g.OutDegree(3); d != 1 {
		t.Errorf("OutDegree(3) = %d, want 1", d)
	}
	got := g.OutNeighbors(4)
	if len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Errorf("OutNeighbors(4) = %v, want [0 3] (sorted)", got)
	}
}

func TestBuilderEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Build()
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph has %d vertices %d edges", g.NumVertices(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.MaxOutDegree() != 0 {
		t.Errorf("MaxOutDegree = %d", g.MaxOutDegree())
	}
}

func TestBuilderNoEdges(t *testing.T) {
	g := NewBuilder(10).Build()
	if g.DanglingCount() != 10 {
		t.Errorf("DanglingCount = %d, want 10", g.DanglingCount())
	}
}

func TestBuilderOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range edge")
		}
	}()
	NewBuilder(2).AddEdge(0, 2)
}

// TestAddEdgesAtomic: a batch with an out-of-range edge in the middle
// panics before any of it is appended, so the builder still holds exactly
// the edges of the earlier batches.
func TestAddEdgesAtomic(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdges([]Edge{{0, 1}, {2, 3}})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic on out-of-range edge")
			}
		}()
		b.AddEdges([]Edge{{1, 2}, {3, 4}, {0, 3}})
	}()
	if got := b.NumPendingEdges(); got != 2 {
		t.Fatalf("NumPendingEdges = %d after the rejected batch, want 2", got)
	}
	g := b.Build()
	want := [][]VertexID{{1}, {}, {3}, {}}
	for v, w := range want {
		if got := g.OutNeighbors(VertexID(v)); !slices.Equal(got, w) {
			t.Errorf("OutNeighbors(%d) = %v, want %v", v, got, w)
		}
	}
}

func TestInEdges(t *testing.T) {
	g := buildTestGraph(t)
	if g.HasInEdges() {
		t.Fatal("in-edges should be lazy")
	}
	g.BuildIn()
	if !g.HasInEdges() {
		t.Fatal("BuildIn did not set in-edges")
	}
	if d := g.InDegree(2); d != 2 {
		t.Errorf("InDegree(2) = %d, want 2", d)
	}
	if d := g.InDegree(0); d != 2 {
		t.Errorf("InDegree(0) = %d, want 2", d)
	}
	in := g.InNeighbors(0)
	if len(in) != 2 {
		t.Fatalf("InNeighbors(0) = %v", in)
	}
	// Sum of in-degrees must equal edge count.
	var sum int64
	for v := 0; v < g.NumVertices(); v++ {
		sum += g.InDegree(VertexID(v))
	}
	if sum != g.NumEdges() {
		t.Errorf("sum of in-degrees %d != edges %d", sum, g.NumEdges())
	}
}

func TestInDegreePanicsWithoutCSC(t *testing.T) {
	g := buildTestGraph(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.InDegree(0)
}

func TestTranspose(t *testing.T) {
	g := buildTestGraph(t)
	tr := g.Transpose()
	if tr.NumEdges() != g.NumEdges() || tr.NumVertices() != g.NumVertices() {
		t.Fatal("transpose changed sizes")
	}
	// Every edge (u,v) in g must appear as (v,u) in tr.
	for v := 0; v < g.NumVertices(); v++ {
		for _, dst := range g.OutNeighbors(VertexID(v)) {
			found := false
			for _, back := range tr.OutNeighbors(dst) {
				if back == VertexID(v) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("edge (%d,%d) missing from transpose", v, dst)
			}
		}
	}
	// Double transpose restores out-degrees.
	tt := tr.Transpose()
	for v := 0; v < g.NumVertices(); v++ {
		if tt.OutDegree(VertexID(v)) != g.OutDegree(VertexID(v)) {
			t.Fatalf("double transpose out-degree mismatch at %d", v)
		}
	}
}

func TestDedupAndSelfLoops(t *testing.T) {
	b := NewBuilder(3)
	b.Dedup = true
	b.RemoveSelfLoops = true
	b.AddEdges([]Edge{{0, 1}, {0, 1}, {1, 1}, {1, 2}, {0, 1}})
	g := b.Build()
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2 (dedup + self-loop removal)", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWithInEager(t *testing.T) {
	b := NewBuilder(2)
	b.WithIn = true
	b.AddEdge(0, 1)
	g := b.Build()
	if !g.HasInEdges() {
		t.Fatal("WithIn did not build CSC")
	}
}

func TestFromCSR(t *testing.T) {
	g, err := FromCSR(3, []int64{0, 1, 2, 2}, []VertexID{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if g.OutDegree(0) != 1 || g.OutDegree(2) != 0 {
		t.Fatal("bad degrees")
	}
	if _, err := FromCSR(3, []int64{0, 5, 2, 2}, []VertexID{1, 2}); err == nil {
		t.Fatal("expected error for non-monotone offsets")
	}
	if _, err := FromCSR(1, []int64{0, 1}, []VertexID{7}); err == nil {
		t.Fatal("expected error for out-of-range edge")
	}
}

func TestComputeStats(t *testing.T) {
	g := buildTestGraph(t)
	s := ComputeStats(g)
	if s.NumVertices != 5 || s.NumEdges != 7 {
		t.Fatalf("stats sizes wrong: %+v", s)
	}
	if s.MaxOutDegree != 2 {
		t.Errorf("MaxOutDegree = %d, want 2", s.MaxOutDegree)
	}
	if s.Dangling != 0 {
		t.Errorf("Dangling = %d, want 0", s.Dangling)
	}
	if s.AvgOutDegree != 7.0/5.0 {
		t.Errorf("AvgOutDegree = %f", s.AvgOutDegree)
	}
}

func randomGraph(rng *rand.Rand, n, m int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(VertexID(rng.Intn(n)), VertexID(rng.Intn(n)))
	}
	return b.Build()
}

// Property: for any random graph, Validate passes and degree sums match.
func TestPropertyDegreeSums(t *testing.T) {
	f := func(seed int64, nRaw uint8, mRaw uint16) bool {
		n := int(nRaw)%64 + 1
		m := int(mRaw) % 512
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, n, m)
		if err := g.Validate(); err != nil {
			return false
		}
		var outSum int64
		for v := 0; v < n; v++ {
			outSum += g.OutDegree(VertexID(v))
		}
		if outSum != int64(m) {
			return false
		}
		g.BuildIn()
		var inSum int64
		for v := 0; v < n; v++ {
			inSum += g.InDegree(VertexID(v))
		}
		return inSum == int64(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: CSC is the exact inverse relation of CSR.
func TestPropertyInEdgesInverse(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(50) + 2
		g := randomGraph(rng, n, rng.Intn(300))
		g.BuildIn()
		// count (u,v) pairs both ways
		fwd := map[[2]VertexID]int{}
		for v := 0; v < n; v++ {
			for _, d := range g.OutNeighbors(VertexID(v)) {
				fwd[[2]VertexID{VertexID(v), d}]++
			}
		}
		bwd := map[[2]VertexID]int{}
		for v := 0; v < n; v++ {
			for _, s := range g.InNeighbors(VertexID(v)) {
				bwd[[2]VertexID{s, VertexID(v)}]++
			}
		}
		if len(fwd) != len(bwd) {
			return false
		}
		for k, c := range fwd {
			if bwd[k] != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	g := buildTestGraph(t)
	g.BuildIn()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatal("sizes differ after round trip")
	}
	if !g2.HasInEdges() {
		t.Fatal("in-edges lost in round trip")
	}
	for v := 0; v < g.NumVertices(); v++ {
		a, b := g.OutNeighbors(VertexID(v)), g2.OutNeighbors(VertexID(v))
		if len(a) != len(b) {
			t.Fatalf("degree mismatch at %d", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("edge mismatch at %d[%d]", v, i)
			}
		}
	}
}

func TestBinaryRoundTripNoCSC(t *testing.T) {
	g := buildTestGraph(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.HasInEdges() {
		t.Fatal("unexpected in-edges")
	}
}

func TestBinaryBadMagic(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("XXXX00000000"))); err == nil {
		t.Fatal("expected error for bad magic")
	}
}

func TestPropertyBinaryRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(40) + 1
		g := randomGraph(rng, n, rng.Intn(200))
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			return false
		}
		g2, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
			return false
		}
		for v := 0; v < n; v++ {
			a, b := g.OutNeighbors(VertexID(v)), g2.OutNeighbors(VertexID(v))
			if len(a) != len(b) {
				return false
			}
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestReadEdgeList(t *testing.T) {
	src := "# comment\n0 1\n0 2\n% another comment\n2 1\n\n3 0\n"
	g, err := ReadEdgeList(bytes.NewBufferString(src), 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 4 || g.NumEdges() != 4 {
		t.Fatalf("got %d vertices %d edges", g.NumVertices(), g.NumEdges())
	}
}

func TestReadEdgeListExplicitSize(t *testing.T) {
	g, err := ReadEdgeList(bytes.NewBufferString("0 1\n"), 10)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 10 {
		t.Fatalf("NumVertices = %d, want 10", g.NumVertices())
	}
	if _, err := ReadEdgeList(bytes.NewBufferString("0 15\n"), 10); err == nil {
		t.Fatal("expected error: explicit size too small")
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{"0\n", "a b\n", "0 b\n", "-1 2\n"}
	for _, c := range cases {
		if _, err := ReadEdgeList(bytes.NewBufferString(c), 0); err == nil {
			t.Errorf("input %q: expected error", c)
		}
	}
}

func TestReadEdgeListLongLine(t *testing.T) {
	// One line far past bufio.Scanner's 64KB default: padding around a valid
	// edge must still parse (regression: the scanner buffer used to cap out
	// and the parse failed on long real-world dump lines).
	var buf bytes.Buffer
	buf.WriteString("# header\n0 1")
	for i := 0; i < 2<<20; i++ {
		buf.WriteByte(' ')
	}
	buf.WriteString("\n1 0\n")
	g, err := ReadEdgeList(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 2 || g.NumEdges() != 2 {
		t.Fatalf("got %d vertices %d edges, want 2/2", g.NumVertices(), g.NumEdges())
	}
}

// failAfterReader yields its buffered content, then a non-EOF error.
type failAfterReader struct {
	data []byte
	err  error
}

func (r *failAfterReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

func TestReadEdgeListScannerErrorCarriesLine(t *testing.T) {
	boom := errors.New("disk gone")
	_, err := ReadEdgeList(&failAfterReader{data: []byte("0 1\n1 0\n"), err: boom}, 0)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped read failure", err)
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("err = %v, want the failing line number (3)", err)
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := buildTestGraph(t)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf, g.NumVertices())
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("edges %d != %d", g2.NumEdges(), g.NumEdges())
	}
}

func TestSaveLoadBinaryFile(t *testing.T) {
	g := buildTestGraph(t)
	path := t.TempDir() + "/g.bin"
	if err := SaveBinary(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatal("mismatch after file round trip")
	}
	if _, err := LoadBinary(path + ".missing"); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestSymmetrize(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdges([]Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}, {Src: 2, Dst: 3}})
	g := b.Build()
	s := g.Symmetrize()
	// 0<->1 deduplicated to 2 edges; 2->3 gains 3->2.
	if s.NumEdges() != 4 {
		t.Fatalf("symmetrized edges = %d, want 4", s.NumEdges())
	}
	for _, e := range []Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}, {Src: 2, Dst: 3}, {Src: 3, Dst: 2}} {
		found := false
		for _, d := range s.OutNeighbors(e.Src) {
			if d == e.Dst {
				found = true
			}
		}
		if !found {
			t.Errorf("edge (%d,%d) missing after symmetrize", e.Src, e.Dst)
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSymmetrizeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, rng.Intn(60)+2, rng.Intn(300))
		s := g.Symmetrize()
		// Every edge has its reverse.
		for v := 0; v < s.NumVertices(); v++ {
			for _, d := range s.OutNeighbors(VertexID(v)) {
				back := false
				for _, r := range s.OutNeighbors(d) {
					if int(r) == v {
						back = true
						break
					}
				}
				if !back {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
