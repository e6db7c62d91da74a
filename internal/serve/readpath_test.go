package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"hipa/internal/gen"
	"hipa/internal/graph"
	"hipa/internal/obs"
)

// serveRequest runs one request through h without a network listener.
func serveRequest(h http.Handler, method, url string, body io.Reader) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, url, body))
	return rec
}

// referenceTopKBody encodes a /v1/topk answer the way the handler did before
// the order was cached: a stable full sort by descending rank (so ties keep
// ascending vertex IDs), the first k entries as int32 vertex IDs, indented
// JSON.
func referenceTopKBody(name string, ver graph.Version, res *rankResult, k int) []byte {
	ids := make([]int32, len(res.Ranks))
	for i := range ids {
		ids[i] = int32(i)
	}
	sort.SliceStable(ids, func(a, b int) bool { return res.Ranks[ids[a]] > res.Ranks[ids[b]] })
	type entry struct {
		Vertex int32   `json:"vertex"`
		Rank   float64 `json:"rank"`
	}
	top := make([]entry, min(k, len(ids)))
	for i := range top {
		top[i] = entry{ids[i], float64(res.Ranks[ids[i]])}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.Encode(struct {
		Graph      string        `json:"graph"`
		Version    graph.Version `json:"version"`
		K          int           `json:"k"`
		Iterations int           `json:"iterations"`
		Top        []entry       `json:"top"`
	}{name, ver, len(top), res.Iterations, top})
	return buf.Bytes()
}

// servedRanks returns the rank result cached on sg's current snapshot.
func servedRanks(t *testing.T, sg *servingGraph) (*snapshot, *rankResult) {
	t.Helper()
	snap := sg.cur.Load()
	snap.mu.Lock()
	defer snap.mu.Unlock()
	if snap.ranks == nil {
		t.Fatal("snapshot has no rank result")
	}
	return snap, snap.ranks
}

// TestTopKCachedOrderOnTies serves a graph of replicated stars, where every
// leaf of a star ties with its siblings and with the leaves of same-sized
// stars: /v1/topk must list ties by ascending vertex ID and answer with the
// bytes the uncached full-sort path produced.
func TestTopKCachedOrderOnTies(t *testing.T) {
	sizes := []int{4, 4, 4, 7, 7, 10, 10}
	n := 0
	for _, leaves := range sizes {
		n += 1 + leaves
	}
	b := graph.NewBuilder(n)
	hub := 0
	for _, leaves := range sizes {
		for l := 1; l <= leaves; l++ {
			b.AddEdge(graph.VertexID(hub), graph.VertexID(hub+l))
			b.AddEdge(graph.VertexID(hub+l), graph.VertexID(hub))
		}
		hub += 1 + leaves
	}
	path := filepath.Join(t.TempDir(), "stars.hgr")
	if err := graph.SaveBinary(path, b.Build()); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Graphs:   []GraphSpec{{Name: "stars", Path: path, Divisor: 8192}},
		Threads:  2,
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	sg, _ := s.graph("stars")

	for _, k := range []int{1, 7, n, n + 100} {
		rec := serveRequest(h, http.MethodGet, "/v1/topk?k="+strconv.Itoa(k), nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("k=%d: /v1/topk = %d: %s", k, rec.Code, rec.Body)
		}
		snap, res := servedRanks(t, sg)
		if want := referenceTopKBody("stars", snap.ver, res, k); !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("k=%d: response differs from the full-sort reference\ngot:\n%s\nwant:\n%s", k, rec.Body, want)
		}
	}
	_, res := servedRanks(t, sg)
	distinct := map[float32]bool{}
	for _, r := range res.Ranks {
		distinct[r] = true
	}
	if len(distinct) > len(sizes) {
		t.Errorf("%d distinct ranks over %d vertices: the graph no longer exercises ties", len(distinct), n)
	}
}

// TestTopKOrderNotStale: a recompute and a reload each publish a new rank
// result, and /v1/topk must answer from that result's own order — built on
// the first /v1/topk against it, never by the Exec or the reload.
func TestTopKOrderNotStale(t *testing.T) {
	s := newTestService(t, nil)
	defer s.Close()
	h := s.Handler()
	sg, _ := s.graph("wiki")
	const k = 20
	check := func(stage string) *rankResult {
		t.Helper()
		snap, res := servedRanks(t, sg)
		if res.order != nil {
			t.Fatalf("%s: order built before any /v1/topk on the new result", stage)
		}
		rec := serveRequest(h, http.MethodGet, "/v1/topk?k=20", nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: /v1/topk = %d", stage, rec.Code)
		}
		if want := referenceTopKBody("wiki", snap.ver, res, k); !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("%s: stale or misordered topk\ngot:\n%s\nwant:\n%s", stage, rec.Body, want)
		}
		return res
	}

	if rec := serveRequest(h, http.MethodGet, "/v1/rank?vertex=0", nil); rec.Code != http.StatusOK {
		t.Fatalf("first rank = %d", rec.Code)
	}
	first := check("first exec")

	if rec := serveRequest(h, http.MethodGet, "/v1/rank?vertex=0&recompute=1", nil); rec.Code != http.StatusOK {
		t.Fatalf("recompute = %d", rec.Code)
	}
	recomputed := check("recompute")
	if recomputed == first || &recomputed.Order()[0] == &first.Order()[0] {
		t.Fatal("recompute served the previous result's order")
	}

	mirror := graph.NewVersioned(sg.cur.Load().g)
	stream, err := gen.NewMutationStream(mirror, 5, 64)
	if err != nil {
		t.Fatal(err)
	}
	if rec := serveRequest(h, http.MethodPost, "/v1/admin/reload", reloadBody(t, mirror, stream)); rec.Code != http.StatusOK {
		t.Fatalf("reload = %d: %s", rec.Code, rec.Body)
	}
	reloaded := check("reload")
	if &reloaded.Order()[0] == &recomputed.Order()[0] {
		t.Fatal("reload served the previous result's order")
	}
}

// TestTopKOrderBuiltOnce hammers a fresh rank result with concurrent first
// /v1/topk requests and direct Order calls: the order is built once (every
// caller sees the same backing array) and every answer is identical.
func TestTopKOrderBuiltOnce(t *testing.T) {
	s := newTestService(t, nil)
	defer s.Close()
	h := s.Handler()
	sg, _ := s.graph("wiki")
	if rec := serveRequest(h, http.MethodGet, "/v1/rank?vertex=0", nil); rec.Code != http.StatusOK {
		t.Fatalf("first rank = %d", rec.Code)
	}
	_, res := servedRanks(t, sg)

	const callers = 16
	start := make(chan struct{})
	bodies := make([][]byte, callers)
	orders := make([]*graph.VertexID, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			if i%2 == 0 {
				bodies[i] = serveRequest(h, http.MethodGet, "/v1/topk?k=50", nil).Body.Bytes()
			} else {
				orders[i] = &res.Order()[0]
			}
		}(i)
	}
	close(start)
	wg.Wait()
	built := &res.order[0]
	for i := 0; i < callers; i++ {
		if i%2 == 0 && !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("caller %d got a different /v1/topk answer", i)
		}
		if i%2 == 1 && orders[i] != built {
			t.Errorf("caller %d saw a different order: built more than once", i)
		}
	}
}

// TestReadPathAllocs pins the allocations of a cached /v1/rank and
// /v1/topk through the full handler, recorder included, so registry lookups
// and repeated query parses on the request path cannot creep back in.
func TestReadPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	s := newTestService(t, nil)
	defer s.Close()
	h := s.Handler()
	if rec := serveRequest(h, http.MethodGet, "/v1/topk?k=10", nil); rec.Code != http.StatusOK {
		t.Fatalf("warm-up topk = %d", rec.Code)
	}
	for _, tc := range []struct {
		url string
		max float64
	}{
		// Measured 20 for rank and 24 for topk (Go 1.24, amd64); the
		// ceilings add 3. One registry lookup per request adds 5, one
		// more parse of the query string adds 4.
		{"/v1/rank?graph=wiki&vertex=1", 23},
		{"/v1/topk?graph=wiki&k=10", 27},
	} {
		req := httptest.NewRequest(http.MethodGet, tc.url, nil)
		allocs := testing.AllocsPerRun(200, func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				panic(rec.Body.String())
			}
		})
		if allocs > tc.max {
			t.Errorf("%s: %.1f allocs/request, ceiling %.0f", tc.url, allocs, tc.max)
		}
	}
}

// TestErrorStatusCounted: the 200 counter is resolved once per endpoint, but
// every other status is still counted under its own code.
func TestErrorStatusCounted(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestService(t, reg)
	defer s.Close()
	h := s.Handler()
	serveRequest(h, http.MethodGet, "/v1/rank?vertex=1", nil)
	if rec := serveRequest(h, http.MethodGet, "/v1/rank?vertex=-1", nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad vertex = %d, want 400", rec.Code)
	}
	if got := reg.Counter(MetricHTTPRequests, "endpoint", "rank", "code", "400").Value(); got != 1 {
		t.Errorf(`requests{endpoint="rank",code="400"} = %d, want 1`, got)
	}
	if got := reg.Counter(MetricHTTPRequests, "endpoint", "rank", "code", "200").Value(); got != 1 {
		t.Errorf(`requests{endpoint="rank",code="200"} = %d, want 1`, got)
	}
	if got := reg.Histogram(MetricHTTPSeconds, "endpoint", "rank").Count(); got != 2 {
		t.Errorf("rank latency samples = %d, want 2", got)
	}
}

// commentStream yields n bytes of mutation-stream comment lines: a body the
// reload parser reads to the end without rejecting or accumulating it.
type commentStream struct{ n int64 }

var commentLine = []byte(strings.Repeat("#", 63) + "\n")

func (c *commentStream) Read(p []byte) (int, error) {
	if c.n <= 0 {
		return 0, io.EOF
	}
	p = p[:min(int64(len(p)), c.n)]
	for i := 0; i < len(p); i += len(commentLine) {
		copy(p[i:], commentLine)
	}
	c.n -= int64(len(p))
	return len(p), nil
}

// TestReloadBodyTooLarge: a reload body over the cap answers 413 and leaves
// the served version alone.
func TestReloadBodyTooLarge(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestService(t, reg)
	defer s.Close()
	h := s.Handler()
	rec := serveRequest(h, http.MethodPost, "/v1/admin/reload", &commentStream{maxReloadBodyBytes + 1})
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized reload = %d, want 413: %s", rec.Code, rec.Body)
	}
	if got := reg.Counter(MetricHTTPRequests, "endpoint", "reload", "code", "413").Value(); got != 1 {
		t.Errorf(`requests{endpoint="reload",code="413"} = %d, want 1`, got)
	}
	sg, _ := s.graph("wiki")
	if v := sg.cur.Load().ver; v != 0 {
		t.Errorf("oversized reload moved the served version to %d", v)
	}
	// A body of exactly the cap is read to the end and rejected as empty.
	if rec := serveRequest(h, http.MethodPost, "/v1/admin/reload", &commentStream{maxReloadBodyBytes}); rec.Code != http.StatusBadRequest {
		t.Errorf("cap-sized comment-only reload = %d, want 400", rec.Code)
	}
}
