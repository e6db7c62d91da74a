package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hipa/internal/engines/common"
	"hipa/internal/execbuf"
	"hipa/internal/gen"
	"hipa/internal/graph"
	"hipa/internal/obs"
)

// testConfig is a small single-graph registry that keeps every test's
// Prepare and Exec in the tens of milliseconds.
func testConfig(reg *obs.Registry) Config {
	return Config{
		Graphs:   []GraphSpec{{Name: "wiki", Dataset: "wiki", Divisor: 8192}},
		Threads:  2,
		Registry: reg,
	}
}

func newTestService(t *testing.T, reg *obs.Registry) *Service {
	t.Helper()
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s, err := New(testConfig(reg))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(b, out); err != nil {
			t.Fatalf("GET %s: not JSON: %v\n%s", url, err, b)
		}
	}
	return resp.StatusCode
}

type rankDoc struct {
	Graph      string        `json:"graph"`
	Version    graph.Version `json:"version"`
	Vertex     int64         `json:"vertex"`
	Rank       float64       `json:"rank"`
	Iterations int           `json:"iterations"`
}

type topkDoc struct {
	Version graph.Version `json:"version"`
	K       int           `json:"k"`
	Top     []struct {
		Vertex int32   `json:"vertex"`
		Rank   float64 `json:"rank"`
	} `json:"top"`
}

func TestServiceEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestService(t, reg)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Registry listing before any rank traffic: version 0, not yet ranked.
	var graphs struct {
		Engine string `json:"engine"`
		Graphs []struct {
			Name     string        `json:"name"`
			Version  graph.Version `json:"version"`
			Vertices int           `json:"vertices"`
			Edges    int64         `json:"edges"`
			Ranked   bool          `json:"ranked"`
		} `json:"graphs"`
	}
	if code := getJSON(t, srv.URL+"/v1/graphs", &graphs); code != http.StatusOK {
		t.Fatalf("/v1/graphs = %d", code)
	}
	if graphs.Engine != "HiPa" || len(graphs.Graphs) != 1 {
		t.Fatalf("/v1/graphs = %+v", graphs)
	}
	g := graphs.Graphs[0]
	if g.Name != "wiki" || g.Version != 0 || g.Vertices == 0 || g.Edges == 0 || g.Ranked {
		t.Errorf("registry entry = %+v", g)
	}

	// First rank query computes; the graph name is optional with one graph.
	var rank rankDoc
	if code := getJSON(t, srv.URL+"/v1/rank?vertex=1", &rank); code != http.StatusOK {
		t.Fatalf("/v1/rank = %d", code)
	}
	if rank.Graph != "wiki" || rank.Vertex != 1 || rank.Rank <= 0 || rank.Iterations == 0 {
		t.Errorf("rank doc = %+v", rank)
	}
	// Second query must be a cache hit, not another Exec.
	var rank2 rankDoc
	getJSON(t, srv.URL+"/v1/rank?graph=wiki&vertex=1", &rank2)
	if rank2.Rank != rank.Rank {
		t.Errorf("cached rank %v != first rank %v", rank2.Rank, rank.Rank)
	}
	if hits := reg.Counter(MetricRankCacheHits, "graph", "wiki").Value(); hits == 0 {
		t.Error("second identical query did not hit the snapshot rank cache")
	}
	if execs := reg.Counter(MetricExecs, "graph", "wiki").Value(); execs != 1 {
		t.Errorf("execs after two queries = %d, want 1", execs)
	}

	var topk topkDoc
	if code := getJSON(t, srv.URL+"/v1/topk?k=5", &topk); code != http.StatusOK {
		t.Fatalf("/v1/topk = %d", code)
	}
	if topk.K != 5 || len(topk.Top) != 5 {
		t.Fatalf("topk = %+v", topk)
	}
	for i := 1; i < len(topk.Top); i++ {
		if topk.Top[i].Rank > topk.Top[i-1].Rank {
			t.Errorf("topk not descending at %d: %v", i, topk.Top)
		}
	}

	var nb struct {
		Dir       string  `json:"dir"`
		Degree    int     `json:"degree"`
		Neighbors []int32 `json:"neighbors"`
	}
	if code := getJSON(t, srv.URL+"/v1/neighbors?vertex=0&dir=out", &nb); code != http.StatusOK {
		t.Fatalf("/v1/neighbors = %d", code)
	}
	if nb.Dir != "out" || nb.Degree != len(nb.Neighbors) {
		t.Errorf("neighbors doc = %+v", nb)
	}
	var lim struct {
		Degree    int     `json:"degree"`
		Neighbors []int32 `json:"neighbors"`
	}
	getJSON(t, srv.URL+"/v1/neighbors?vertex=0&limit=1", &lim)
	if lim.Degree != nb.Degree || len(lim.Neighbors) > 1 {
		t.Errorf("limited neighbors = %+v (full degree %d)", lim, nb.Degree)
	}

	// Error paths.
	for _, tc := range []struct {
		url  string
		want int
	}{
		{"/v1/rank?graph=nope&vertex=0", http.StatusNotFound},
		{"/v1/rank?vertex=-1", http.StatusBadRequest},
		{"/v1/rank?vertex=99999999", http.StatusBadRequest},
		{"/v1/rank", http.StatusBadRequest},
		{"/v1/topk?k=0", http.StatusBadRequest},
		{"/v1/neighbors?vertex=0&dir=sideways", http.StatusBadRequest},
		{"/v1/neighbors?vertex=0&limit=-2", http.StatusBadRequest},
		{"/no/such", http.StatusNotFound},
	} {
		if code := getJSON(t, srv.URL+tc.url, nil); code != tc.want {
			t.Errorf("GET %s = %d, want %d", tc.url, code, tc.want)
		}
	}
	if resp, err := http.Post(srv.URL+"/v1/rank?vertex=0", "text/plain", nil); err == nil {
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST /v1/rank = %d, want 405", resp.StatusCode)
		}
		resp.Body.Close()
	}

	// The telemetry surface rides on the same listener, and the serving
	// metrics show up in the exposition.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, family := range []string{MetricExecs, MetricRankCacheHits, MetricHTTPSeconds, MetricHTTPRequests, "hipa_prep_cache_misses_total"} {
		if !strings.Contains(string(body), family) {
			t.Errorf("/metrics missing family %s", family)
		}
	}
	if code := getJSON(t, srv.URL+"/healthz", nil); code != http.StatusOK {
		t.Errorf("/healthz = %d", code)
	}
	if code := getJSON(t, srv.URL+"/", nil); code != http.StatusOK {
		t.Errorf("index = %d", code)
	}
}

func TestServiceLoadsBinaryGraphFromPath(t *testing.T) {
	g, err := gen.GenerateByName("kron", 8192)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "kron.hgr")
	if err := graph.SaveBinary(path, g); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Graphs:   []GraphSpec{{Name: "disk", Path: path, Divisor: 8192}},
		Threads:  2,
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	sg, err := s.graph("disk")
	if err != nil {
		t.Fatal(err)
	}
	if got := sg.cur.Load().g.NumVertices(); got != g.NumVertices() {
		t.Errorf("loaded %d vertices, want %d", got, g.NumVertices())
	}
}

func TestConfigValidation(t *testing.T) {
	reg := obs.NewRegistry()
	for name, cfg := range map[string]Config{
		"no graphs":       {Registry: reg},
		"unnamed spec":    {Registry: reg, Graphs: []GraphSpec{{Dataset: "wiki", Divisor: 8192}}},
		"duplicate names": {Registry: reg, Graphs: []GraphSpec{{Name: "a", Dataset: "wiki", Divisor: 8192}, {Name: "a", Dataset: "kron", Divisor: 8192}}},
		"path and dataset": {Registry: reg, Graphs: []GraphSpec{
			{Name: "a", Path: "/no/such.hgr", Dataset: "wiki"}}},
		"neither":         {Registry: reg, Graphs: []GraphSpec{{Name: "a"}}},
		"unknown dataset": {Registry: reg, Graphs: []GraphSpec{{Name: "a", Dataset: "friendster"}}},
		"unknown preset":  {Registry: reg, Preset: "m1max", Graphs: []GraphSpec{{Name: "a", Dataset: "wiki", Divisor: 8192}}},
		"unknown engine":  {Registry: reg, Engine: "dijkstra", Graphs: []GraphSpec{{Name: "a", Dataset: "wiki", Divisor: 8192}}},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted a bad config", name)
		}
	}
}

// TestDefaultThreadsFitMachine: a zero Config.Threads asks for GOMAXPROCS
// threads per NUMA node of the preset, capped at its logical cores, so a
// host with more procs than the preset has cores still serves.
func TestDefaultThreadsFitMachine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(2)
	if got := (Config{}).withDefaults().Threads; got != 4 {
		t.Errorf("GOMAXPROCS 2 on %s: default Threads = %d, want 4 (2 per node)", DefaultPreset, got)
	}

	runtime.GOMAXPROCS(64)
	cfg := testConfig(obs.NewRegistry())
	cfg.Threads = 0
	s, srv, _ := pprTestServer(t, cfg)
	if s.cfg.Threads != 40 {
		t.Errorf("GOMAXPROCS 64 on %s: default Threads = %d, want its 40 logical cores", DefaultPreset, s.cfg.Threads)
	}
	var rank rankDoc
	if code := getJSON(t, srv.URL+"/v1/rank?vertex=1", &rank); code != http.StatusOK || rank.Rank <= 0 {
		t.Errorf("/v1/rank = %d, %+v", code, rank)
	}
	if r := awaitPPR(t, getPPR(t, srv.URL+"/v1/ppr?seeds=3&k=5"), 10*time.Second, "/v1/ppr"); r.code != http.StatusOK || len(r.doc.Top) != 5 {
		t.Errorf("/v1/ppr = %d, %+v", r.code, r.doc)
	}
}

// gatedEngine wraps the real engine with a gate inside Exec: the first
// caller signals entered and then blocks until release, so a test can hold
// an Exec in flight while more requests pile onto the same snapshot.
type gatedEngine struct {
	common.Engine
	mu      sync.Mutex
	entered chan struct{}
	release chan struct{}
	execs   int
}

func (e *gatedEngine) Exec(prep *common.Prepared, o common.Options) (*common.Result, error) {
	e.mu.Lock()
	e.execs++
	first := e.execs == 1
	e.mu.Unlock()
	if first {
		close(e.entered)
		<-e.release
	}
	return e.Engine.Exec(prep, o)
}

// TestRecomputeCoalescing is the serving singleflight contract: N identical
// recompute requests arriving while an Exec is in flight coalesce onto that
// one run — one engine execution, N-1 coalesced joins, identical results.
func TestRecomputeCoalescing(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestService(t, reg)
	ge := &gatedEngine{Engine: s.engine, entered: make(chan struct{}), release: make(chan struct{})}
	s.engine = ge
	sg, err := s.graph("wiki")
	if err != nil {
		t.Fatal(err)
	}
	snap := sg.cur.Load()

	const joiners = 8
	results := make(chan *rankResult, joiners+1)
	errs := make(chan error, joiners+1)
	go func() {
		res, err := s.ranksFor(sg, snap, true)
		results <- res
		errs <- err
	}()
	<-ge.entered // the first Exec now holds the flight slot
	for i := 0; i < joiners; i++ {
		go func() {
			res, err := s.ranksFor(sg, snap, true)
			results <- res
			errs <- err
		}()
	}
	// Wait until every joiner has coalesced onto the flight, then let the
	// gated Exec finish.
	coalesced := reg.Counter(MetricExecCoalesced, "graph", "wiki")
	deadline := time.Now().Add(10 * time.Second)
	for coalesced.Value() < joiners {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d requests coalesced", coalesced.Value(), joiners)
		}
		time.Sleep(time.Millisecond)
	}
	close(ge.release)

	var first *rankResult
	for i := 0; i < joiners+1; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		res := <-results
		if first == nil {
			first = res
		} else if res != first {
			t.Errorf("request %d got a different result object — did not join the flight", i)
		}
	}
	if ge.execs != 1 {
		t.Errorf("engine ran %d Execs for %d concurrent recomputes, want 1", ge.execs, joiners+1)
	}
	if execs := reg.Counter(MetricExecs, "graph", "wiki").Value(); execs != 1 {
		t.Errorf("exec counter = %d, want 1", execs)
	}
}

// reloadBody serializes the next mirror batch as a mutation-stream request
// body, applying it to the mirror so subsequent batches stay consistent
// with what the service will have applied.
func reloadBody(t *testing.T, mirror *graph.Versioned, stream *gen.MutationStream) *bytes.Buffer {
	t.Helper()
	b := stream.Next()
	if _, err := mirror.ApplyBatch(b); err != nil {
		t.Fatalf("mirror ApplyBatch: %v", err)
	}
	var buf bytes.Buffer
	if err := graph.WriteMutationBatches(&buf, [][]graph.Mutation{b}); err != nil {
		t.Fatalf("WriteMutationBatches: %v", err)
	}
	return &buf
}

// TestReloadSwapsSnapshotAndStaysCorrect: a reload must advance the served
// version, re-rank warm, and produce ranks matching a cold run on the
// mutated graph within the warm-start quality bound (10x the convergence
// tolerance, the bound the dynamic replay tests use).
func TestReloadSwapsSnapshotAndStaysCorrect(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestService(t, reg)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	sg, err := s.graph("wiki")
	if err != nil {
		t.Fatal(err)
	}

	// Rank once so the reload has converged ranks to warm-start from.
	var before rankDoc
	if code := getJSON(t, srv.URL+"/v1/rank?vertex=3", &before); code != http.StatusOK {
		t.Fatalf("initial rank = %d", code)
	}

	mirror := graph.NewVersioned(sg.cur.Load().g)
	stream, err := gen.NewMutationStream(mirror, 42, 64)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/admin/reload?graph=wiki", "text/plain", reloadBody(t, mirror, stream))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload = %d: %s", resp.StatusCode, body)
	}
	var rep ReloadReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("reload report not JSON: %v\n%s", err, body)
	}
	if rep.FromVersion != 0 || rep.ToVersion != 1 || rep.Batches != 1 {
		t.Errorf("report versions = %+v", rep)
	}
	if rep.Prep != "patched" {
		t.Errorf("64-mutation reload fell back to a cold rebuild: %+v", rep)
	}
	if !rep.Warm || rep.Iterations == 0 {
		t.Errorf("reload did not warm re-rank: %+v", rep)
	}
	if v := reg.Gauge(MetricGraphVersion, "graph", "wiki").Value(); v != 1 {
		t.Errorf("version gauge = %v, want 1", v)
	}

	// The snapshot swapped: new queries see version 1 without recomputing.
	var after rankDoc
	if code := getJSON(t, srv.URL+"/v1/rank?vertex=3", &after); code != http.StatusOK {
		t.Fatalf("post-reload rank = %d", code)
	}
	if after.Version != 1 {
		t.Errorf("post-reload query served version %d, want 1", after.Version)
	}

	// Warm result vs a cold run on the same mutated graph.
	served, err := s.ranksFor(sg, sg.cur.Load(), false)
	if err != nil {
		t.Fatal(err)
	}
	mutated, err := mirror.GraphAt(mirror.Version())
	if err != nil {
		t.Fatal(err)
	}
	coldPrep, err := s.engine.Prepare(mutated, sg.opts)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := s.engine.Exec(coldPrep, sg.opts)
	if err != nil {
		t.Fatal(err)
	}
	bound := 10 * s.cfg.Tolerance
	if d := common.MaxAbsDiff(served.Ranks, cold.Ranks); d > bound {
		t.Errorf("warm-reloaded ranks diverge from cold run: L-inf %g > %g", d, bound)
	}
}

// TestReloadUnderLoad hammers the query endpoints while reloads swap the
// snapshot underneath them: every response must succeed (a request always
// completes on the snapshot it started with), and the served version must
// reach the last reload's. Run with -race this is the serving-layer
// equivalent of the dynamic-replay contract.
func TestReloadUnderLoad(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestService(t, reg)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	sg, err := s.graph("wiki")
	if err != nil {
		t.Fatal(err)
	}
	if code := getJSON(t, srv.URL+"/v1/rank?vertex=0", nil); code != http.StatusOK {
		t.Fatalf("warmup rank = %d", code)
	}

	const reloads = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	type failure struct {
		url  string
		code int
	}
	fails := make(chan failure, 128)
	paths := []string{"/v1/rank?vertex=5", "/v1/topk?k=3", "/v1/neighbors?vertex=9", "/v1/graphs"}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				url := srv.URL + paths[(w+i)%len(paths)]
				resp, err := http.Get(url)
				if err != nil {
					select {
					case fails <- failure{url, -1}:
					default:
					}
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					select {
					case fails <- failure{url, resp.StatusCode}:
					default:
					}
				}
			}
		}(w)
	}

	mirror := graph.NewVersioned(sg.cur.Load().g)
	stream, err := gen.NewMutationStream(mirror, 7, 48)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < reloads; i++ {
		resp, err := http.Post(srv.URL+"/v1/admin/reload", "text/plain", reloadBody(t, mirror, stream))
		if err != nil {
			t.Fatalf("reload %d: %v", i, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reload %d = %d: %s", i, resp.StatusCode, body)
		}
	}
	close(stop)
	wg.Wait()
	close(fails)
	for f := range fails {
		t.Errorf("query failed during reloads: %s -> %d", f.url, f.code)
	}
	var final rankDoc
	if code := getJSON(t, srv.URL+"/v1/rank?vertex=5", &final); code != http.StatusOK {
		t.Fatalf("final rank = %d", code)
	}
	if final.Version != graph.Version(reloads) {
		t.Errorf("final served version = %d, want %d", final.Version, reloads)
	}
	if got := reg.Counter(MetricReloads, "graph", "wiki").Value(); got != reloads {
		t.Errorf("reload counter = %d, want %d", got, reloads)
	}
}

// TestReloadRejectsBadStreams: malformed or out-of-range mutation streams
// must fail without changing the served version.
func TestReloadRejectsBadStreams(t *testing.T) {
	s := newTestService(t, nil)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	for name, body := range map[string]string{
		"empty":        "",
		"comment only": "# nothing here\n",
		"garbage":      "insert 0 1\ncommit\n",
		"out of range": "+ 0 99999999\ncommit\n",
		"negative":     "+ -4 1\ncommit\n",
		"unknownended": "+ 0\ncommit\n",
	} {
		resp, err := http.Post(srv.URL+"/v1/admin/reload?graph=wiki", "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: reload = %d, want 400", name, resp.StatusCode)
		}
	}
	var rank rankDoc
	getJSON(t, srv.URL+"/v1/rank?vertex=0", &rank)
	if rank.Version != 0 {
		t.Errorf("failed reloads advanced the served version to %d", rank.Version)
	}
	if resp, _ := http.Get(srv.URL + "/v1/admin/reload"); resp != nil {
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET reload = %d, want 405", resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// TestFailedReloadKeepsArenasWarm: a reload whose first batch advances the
// artifact and whose second batch is invalid publishes nothing, so the live
// snapshot's pool must keep serving its own Execs: after the one miss the
// abandoned advance costs, repeated Execs create no further arenas.
func TestFailedReloadKeepsArenasWarm(t *testing.T) {
	s := newTestService(t, nil)
	sg, err := s.graph("wiki")
	if err != nil {
		t.Fatal(err)
	}
	live := sg.cur.Load()
	if _, err := s.ranksFor(sg, live, true); err != nil {
		t.Fatal(err)
	}
	mirror := graph.NewVersioned(live.g)
	stream, err := gen.NewMutationStream(mirror, 7, 64)
	if err != nil {
		t.Fatal(err)
	}
	body := reloadBody(t, mirror, stream)
	body.WriteString("+ 0 99999999\ncommit\n")
	if _, err := s.Reload("wiki", body); err == nil {
		t.Fatal("reload with an out-of-range second batch succeeded")
	}
	if sg.cur.Load() != live {
		t.Fatal("failed reload swapped the snapshot")
	}
	if _, err := s.ranksFor(sg, live, true); err != nil {
		t.Fatal(err)
	}
	created := live.prep.ArenaStats().Created
	for i := 0; i < 3; i++ {
		if _, err := s.ranksFor(sg, live, true); err != nil {
			t.Fatal(err)
		}
	}
	if got := live.prep.ArenaStats().Created; got != created {
		t.Errorf("live pool created %d arenas over 3 Execs after a failed reload, want 0", got-created)
	}
}

// TestOverlappedExecsReuseArenas: /v1/ppr batches, /v1/rank recomputes and
// reloads whose warm re-ranks overlap them create no arena once the pool
// holds as many as can be in use at once — MaxConcurrentExecs, plus one
// for the artifact a reload is about to publish. Every artifact a reload
// produces follows the live one's pool (it draws its first arena from
// there), Execs that start on a superseded snapshot draw from its
// successor, and each pool keeps up to that many arenas, so none is
// dropped on return and created again.
func TestOverlappedExecsReuseArenas(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := testConfig(reg)
	cfg.Threads = 0
	s, srv, sg := pprTestServer(t, cfg)
	if code := getJSON(t, srv.URL+"/v1/rank?vertex=3", nil); code != http.StatusOK {
		t.Fatalf("initial rank = %d", code)
	}
	live := sg.cur.Load().prep
	if got, want := live.ArenaCap(), s.cfg.MaxConcurrentExecs+1; got != want {
		t.Fatalf("serving artifact's arena cap = %d, want %d", got, want)
	}
	// Warm-up: put as many arenas in the pool as can be in use at once.
	held := make([]*execbuf.Arena, live.ArenaCap())
	for i := range held {
		held[i] = live.AcquireArena()
	}
	for _, a := range held {
		live.ReleaseArena(a)
	}
	before := execbuf.GlobalStats()

	mirror := graph.NewVersioned(sg.cur.Load().g)
	stream, err := gen.NewMutationStream(mirror, 11, 64)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	var pprs, ranks atomic.Int64
	loop := func(url func(i int) string, n *atomic.Int64) {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			resp, err := http.Get(url(i))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("GET %s = %d", url(i), resp.StatusCode)
				return
			}
			n.Add(1)
		}
	}
	wg.Add(2)
	go loop(func(i int) string { return fmt.Sprintf("%s/v1/ppr?seeds=%d&k=5", srv.URL, i%50) }, &pprs)
	go loop(func(i int) string { return fmt.Sprintf("%s/v1/rank?vertex=%d&recompute=1", srv.URL, i%50) }, &ranks)
	// At least 12 reloads, and more until both request loops have been
	// answered a few times while reloads run.
	reloads := 0
	for ; reloads < 12 || (pprs.Load() < 4 || ranks.Load() < 4) && reloads < 1000; reloads++ {
		if _, err := s.Reload("wiki", reloadBody(t, mirror, stream)); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
	if pprs.Load() < 4 || ranks.Load() < 4 {
		t.Fatalf("%d /v1/ppr and %d /v1/rank requests overlapped %d reloads, want 4 of each", pprs.Load(), ranks.Load(), reloads)
	}
	after := execbuf.GlobalStats()
	if created := after.Created - before.Created; created != 0 {
		t.Errorf("%d arenas created over %d reloads, %d /v1/ppr and %d /v1/rank requests after warm-up, want 0",
			created, reloads, pprs.Load(), ranks.Load())
	}
	if after.Reused == before.Reused {
		t.Error("no Exec drew a pooled arena")
	}
}

func ExampleService() {
	s, err := New(Config{
		Graphs:   []GraphSpec{{Name: "kron", Dataset: "kron", Divisor: 8192}},
		Threads:  2,
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/graphs")
	if err != nil {
		fmt.Println(err)
		return
	}
	defer resp.Body.Close()
	var doc struct {
		Engine string `json:"engine"`
	}
	json.NewDecoder(resp.Body).Decode(&doc)
	fmt.Println(doc.Engine)
	// Output: HiPa
}
