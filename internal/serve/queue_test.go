package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"hipa/internal/engines/bppr"
	"hipa/internal/engines/common"
	"hipa/internal/gen"
	"hipa/internal/graph"
	"hipa/internal/obs"
)

type pprDoc struct {
	Graph      string        `json:"graph"`
	Version    graph.Version `json:"version"`
	Seeds      []int32       `json:"seeds"`
	K          int           `json:"k"`
	Batch      int           `json:"batch"`
	Iterations int           `json:"iterations"`
	Top        []struct {
		Vertex int32   `json:"vertex"`
		Rank   float64 `json:"rank"`
	} `json:"top"`
}

// pprResult is one asynchronous /v1/ppr call's outcome.
type pprResult struct {
	code int
	doc  pprDoc
}

// getPPR issues GET url in the background; the result arrives on the
// returned channel (code 0 when the request itself failed).
func getPPR(t *testing.T, url string) <-chan pprResult {
	ch := make(chan pprResult, 1)
	go func() {
		var r pprResult
		defer func() { ch <- r }()
		resp, err := http.Get(url)
		if err != nil {
			t.Errorf("GET %s: %v", url, err)
			return
		}
		defer resp.Body.Close()
		r.code = resp.StatusCode
		if r.code == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&r.doc); err != nil {
				t.Errorf("GET %s: decode: %v", url, err)
			}
		}
	}()
	return ch
}

// awaitPPR waits for an asynchronous call, failing the test after within.
func awaitPPR(t *testing.T, ch <-chan pprResult, within time.Duration, what string) pprResult {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(within):
		t.Fatalf("%s did not return within %v", what, within)
		return pprResult{}
	}
}

// waitUntil polls cond until it holds, failing the test after 10s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// holdExecs occupies every Exec slot, so each flushed batch stays in flight
// — waiting on the semaphore — until the returned release runs. Release is
// idempotent, so tests may also defer it.
func holdExecs(s *Service) (release func()) {
	for i := 0; i < cap(s.sem); i++ {
		s.sem <- struct{}{}
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			for i := 0; i < cap(s.sem); i++ {
				<-s.sem
			}
		})
	}
}

// pprTestServer starts a service on cfg behind an httptest server and
// returns it with its wiki graph entry; cleanup is registered on t.
func pprTestServer(t *testing.T, cfg Config) (*Service, *httptest.Server, *servingGraph) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	sg, err := s.graph("wiki")
	if err != nil {
		t.Fatal(err)
	}
	return s, srv, sg
}

// collected reports whether the collector has taken in n queries.
func collected(reg *obs.Registry, sg *servingGraph, n int64) func() bool {
	return func() bool {
		return reg.Counter(MetricPPRQueries, "graph", "wiki").Value() >= n && len(sg.pprCh) == 0
	}
}

// batchesAt reports whether n batches have flushed.
func batchesAt(reg *obs.Registry, n int64) func() bool {
	return func() bool { return reg.Counter(MetricPPRBatches, "graph", "wiki").Value() >= n }
}

// TestPPRIdleFlush: a lone request on an idle graph flushes at once as a
// width-1 batch, whatever the flush deadline.
func TestPPRIdleFlush(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := testConfig(reg)
	cfg.BatchFlushMs = 60_000 // only the idle flush can answer in time
	_, srv, _ := pprTestServer(t, cfg)

	r := awaitPPR(t, getPPR(t, srv.URL+"/v1/ppr?seeds=3&k=5"), 10*time.Second, "a lone request (deadline 60s away)")
	doc := r.doc
	if r.code != http.StatusOK || doc.Graph != "wiki" || doc.Batch != 1 || doc.K != 5 || len(doc.Top) != 5 || doc.Iterations == 0 {
		t.Fatalf("ppr = %d %+v", r.code, doc)
	}
	// Personalization sanity: the seed dominates its own restart vector.
	if doc.Top[0].Vertex != 3 {
		t.Errorf("seed 3 is not the top-ranked vertex: %+v", doc.Top)
	}
	if got := reg.Counter(MetricPPRBatches, "graph", "wiki").Value(); got != 1 {
		t.Errorf("batches = %d, want 1", got)
	}
	if got := reg.Counter(MetricPPRQueries, "graph", "wiki").Value(); got != 1 {
		t.Errorf("queries = %d, want 1", got)
	}
}

// TestPPRDeadlineFlush: while a batch of the graph is in flight, a request
// must not wait for batch-mates beyond the flush deadline — it flushes as a
// width-1 batch before the in-flight one finishes.
func TestPPRDeadlineFlush(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := testConfig(reg)
	cfg.BatchFlushMs = 50
	s, srv, _ := pprTestServer(t, cfg)
	release := holdExecs(s)
	defer release()

	first := getPPR(t, srv.URL+"/v1/ppr?seeds=9&k=5")
	waitUntil(t, "the first request flushes on the idle graph", batchesAt(reg, 1))
	second := getPPR(t, srv.URL+"/v1/ppr?seeds=3&k=5")
	// The first batch cannot finish while the Exec slots are held, so only
	// the deadline can flush the second.
	waitUntil(t, "the deadline flushes the second request", batchesAt(reg, 2))
	release()
	for _, r := range []pprResult{
		awaitPPR(t, first, 30*time.Second, "the first request"),
		awaitPPR(t, second, 30*time.Second, "the second request"),
	} {
		if r.code != http.StatusOK || r.doc.Batch != 1 || len(r.doc.Top) != 5 || r.doc.Top[0].Vertex != r.doc.Seeds[0] {
			t.Errorf("ppr = %d %+v, want 200 from a width-1 batch topped by its seed", r.code, r.doc)
		}
	}
	if got := reg.Counter(MetricPPRBatches, "graph", "wiki").Value(); got != 2 {
		t.Errorf("batches = %d, want 2", got)
	}
}

// TestPPRInFlightArrivalsCoalesce: requests arriving while a batch is in
// flight coalesce into one next batch, which flushes when the in-flight
// batch completes — not at the (60s) deadline.
func TestPPRInFlightArrivalsCoalesce(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := testConfig(reg)
	cfg.BatchFlushMs = 60_000
	s, srv, sg := pprTestServer(t, cfg)
	release := holdExecs(s)
	defer release()

	first := getPPR(t, srv.URL+"/v1/ppr?seeds=9&k=3")
	waitUntil(t, "the first request flushes on the idle graph", batchesAt(reg, 1))
	var later []<-chan pprResult
	for i := 0; i < 3; i++ {
		later = append(later, getPPR(t, fmt.Sprintf("%s/v1/ppr?seeds=%d&k=3", srv.URL, i)))
	}
	waitUntil(t, "the collector holds all four requests", collected(reg, sg, 4))
	if got := reg.Counter(MetricPPRBatches, "graph", "wiki").Value(); got != 1 {
		t.Fatalf("batches = %d while the first is in flight, want 1", got)
	}
	release()
	if r := awaitPPR(t, first, 30*time.Second, "the first request"); r.code != http.StatusOK || r.doc.Batch != 1 {
		t.Errorf("first = %d %+v, want 200 from a width-1 batch", r.code, r.doc)
	}
	for i, ch := range later {
		r := awaitPPR(t, ch, 30*time.Second, "a coalesced request")
		if r.code != http.StatusOK || r.doc.Batch != 3 || r.doc.Top[0].Vertex != int32(i) {
			t.Errorf("request %d = %d %+v, want 200 from the width-3 batch topped by its seed", i, r.code, r.doc)
		}
	}
	if got := reg.Counter(MetricPPRBatches, "graph", "wiki").Value(); got != 2 {
		t.Errorf("batches = %d, want 2", got)
	}
}

// TestPPRFullBatchFlush: with a flush deadline far beyond the test's
// patience, a burst of BatchMaxSize requests behind an in-flight batch must
// flush on width alone, and every response must report the full batch
// width.
func TestPPRFullBatchFlush(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := testConfig(reg)
	cfg.BatchMaxSize = 4
	cfg.BatchFlushMs = 60_000 // only a width-triggered flush can finish in time
	s, srv, _ := pprTestServer(t, cfg)
	release := holdExecs(s)
	defer release()

	first := getPPR(t, srv.URL+"/v1/ppr?seeds=9&k=3")
	waitUntil(t, "the first request flushes on the idle graph", batchesAt(reg, 1))
	var burst []<-chan pprResult
	for i := 0; i < 4; i++ {
		burst = append(burst, getPPR(t, fmt.Sprintf("%s/v1/ppr?seeds=%d&k=3", srv.URL, i)))
	}
	// The first batch is held in flight, so only the width can flush these.
	waitUntil(t, "the burst flushes on batch width", batchesAt(reg, 2))
	release()
	awaitPPR(t, first, 30*time.Second, "the first request")
	for i, ch := range burst {
		r := awaitPPR(t, ch, 30*time.Second, "a burst request")
		if r.code != http.StatusOK {
			t.Fatalf("request %d = %d", i, r.code)
		}
		if r.doc.Batch != 4 {
			t.Errorf("request %d served in a width-%d batch, want 4", i, r.doc.Batch)
		}
		if r.doc.Top[0].Vertex != int32(i) {
			t.Errorf("request %d: top vertex %d, want its seed %d", i, r.doc.Top[0].Vertex, i)
		}
	}
	if got := reg.Counter(MetricPPRBatches, "graph", "wiki").Value(); got != 2 {
		t.Errorf("batches = %d, want 2", got)
	}
}

// TestPPRQueueFullRejects: with the collector never started and a depth-1
// queue pre-filled, the endpoint must shed load with 503 instead of
// blocking.
func TestPPRQueueFullRejects(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := testConfig(reg)
	cfg.BatchQueueDepth = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sg, err := s.graph("wiki")
	if err != nil {
		t.Fatal(err)
	}
	// Burn the collector's Once so nothing drains the queue, then fill it.
	sg.pprOnce.Do(func() {})
	if !s.enqueuePPR(sg, &pprReq{ctx: context.Background(), snap: sg.cur.Load(), k: 1, resp: make(chan pprResp, 1)}) {
		t.Fatal("first enqueue rejected on an empty depth-1 queue")
	}

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	if code := getJSON(t, srv.URL+"/v1/ppr?seeds=1", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("full queue = %d, want 503", code)
	}
	if got := reg.Counter(MetricPPRRejected, "graph", "wiki").Value(); got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}
}

// TestPPRReloadMidBatchKeepsPinnedSnapshot: a request collected before a
// reload must be served on the snapshot it pinned at arrival, and a request
// arriving after the swap must flush the stale batch rather than join it.
func TestPPRReloadMidBatchKeepsPinnedSnapshot(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := testConfig(reg)
	cfg.BatchMaxSize = 8
	cfg.BatchFlushMs = 60_000 // batches only flush on width, snapshot change or idleness
	s, srv, sg := pprTestServer(t, cfg)
	release := holdExecs(s)
	defer release()

	first := getPPR(t, srv.URL+"/v1/ppr?seeds=9&k=3")
	waitUntil(t, "the first request flushes on the idle graph", batchesAt(reg, 1))
	old := getPPR(t, srv.URL+"/v1/ppr?seeds=2&k=3")
	waitUntil(t, "the collector holds the pre-reload request", collected(reg, sg, 2))

	mirror := graph.NewVersioned(sg.cur.Load().g)
	stream, err := gen.NewMutationStream(mirror, 42, 64)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/admin/reload?graph=wiki", "text/plain", reloadBody(t, mirror, stream))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload = %d", resp.StatusCode)
	}

	// The newcomer pins version 1, which must flush the version-0 batch
	// even though the first batch is still in flight.
	newer := getPPR(t, srv.URL+"/v1/ppr?seeds=5&k=3")
	waitUntil(t, "the snapshot change flushes the pre-reload batch", batchesAt(reg, 2))
	release()
	if r := awaitPPR(t, old, 30*time.Second, "the pre-reload request"); r.code != http.StatusOK || r.doc.Version != 0 || r.doc.Batch != 1 {
		t.Fatalf("pre-reload request = %d %+v, want 200 on version 0 in a width-1 batch", r.code, r.doc)
	}
	if r := awaitPPR(t, newer, 30*time.Second, "the post-reload request"); r.code != http.StatusOK || r.doc.Version != 1 {
		t.Fatalf("post-reload request = %d %+v, want 200 on version 1", r.code, r.doc)
	}
	awaitPPR(t, first, 30*time.Second, "the first request")
}

// TestPPRCancelledRequestFreesSlot: a request whose caller gives up while
// it waits in the open batch returns at once, is dropped before the batch
// flushes, and leaves its batch-mates' answers intact; a batch whose only
// request was cancelled never runs.
func TestPPRCancelledRequestFreesSlot(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := testConfig(reg)
	cfg.BatchMaxSize = 3
	cfg.BatchFlushMs = 60_000
	s, srv, sg := pprTestServer(t, cfg)
	cancelled := reg.Counter(MetricHTTPRequests, "endpoint", "ppr", "code", "499")
	batches := reg.Counter(MetricPPRBatches, "graph", "wiki")

	// cancelPPR collects one request, cancels it, and waits for its
	// handler to give up.
	cancelPPR := func(seeds string) {
		t.Helper()
		queued := reg.Counter(MetricPPRQueries, "graph", "wiki").Value() + 1
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/v1/ppr?seeds="+seeds, nil)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				resp.Body.Close()
			}
			done <- err
		}()
		want := cancelled.Value() + 1
		waitUntil(t, "the collector holds the doomed request", collected(reg, sg, queued))
		cancel()
		if err := <-done; err == nil {
			t.Fatal("cancelled request completed")
		}
		waitUntil(t, "the handler gives up on the cancelled request", func() bool { return cancelled.Value() >= want })
	}

	release := holdExecs(s)
	defer release()
	first := getPPR(t, srv.URL+"/v1/ppr?seeds=9&k=3")
	waitUntil(t, "the first request flushes on the idle graph", batchesAt(reg, 1))
	cancelPPR("2")
	// The cancelled request still counts toward the width of 3, so these
	// two flush the batch while the first is in flight — as a width-2 Exec.
	mates := []<-chan pprResult{
		getPPR(t, srv.URL+"/v1/ppr?seeds=4&k=5"),
		getPPR(t, srv.URL+"/v1/ppr?seeds=5&k=5"),
	}
	waitUntil(t, "the width flush", batchesAt(reg, 2))
	release()
	awaitPPR(t, first, 30*time.Second, "the first request")
	prep, err := sg.cur.Load().bpprPrep(sg.opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, ch := range mates {
		r := awaitPPR(t, ch, 30*time.Second, "a batch-mate")
		if r.code != http.StatusOK || r.doc.Batch != 2 {
			t.Fatalf("batch-mate %d = %d %+v, want 200 from a width-2 batch", i, r.code, r.doc)
		}
		want, err := bppr.ExecBatch(prep, sg.opts, []bppr.Query{{Seeds: []graph.VertexID{graph.VertexID(r.doc.Seeds[0])}}})
		if err != nil {
			t.Fatal(err)
		}
		ranks := want.Ranks[0]
		top := common.TopK(ranks, 5)
		for j, e := range r.doc.Top {
			if e.Vertex != int32(top[j]) || e.Rank != float64(ranks[top[j]]) {
				t.Fatalf("batch-mate %d: top %+v differs from its solo run at %d (vertex %d rank %g)", i, r.doc.Top, j, top[j], ranks[top[j]])
			}
		}
	}

	// A batch whose every request was cancelled is skipped.
	release = holdExecs(s)
	defer release()
	held := getPPR(t, srv.URL+"/v1/ppr?seeds=7&k=3")
	waitUntil(t, "the held request flushes on the idle graph", batchesAt(reg, 3))
	cancelPPR("8")
	release()
	awaitPPR(t, held, 30*time.Second, "the held request")
	if r := awaitPPR(t, getPPR(t, srv.URL+"/v1/ppr?seeds=1&k=3"), 30*time.Second, "a later request"); r.code != http.StatusOK || r.doc.Batch != 1 {
		t.Fatalf("later request = %d %+v", r.code, r.doc)
	}
	if got := batches.Value(); got != 4 {
		t.Errorf("batches = %d, want 4: the all-cancelled batch must not run", got)
	}
}

// TestPPRRunsOnServingArtifact: with a HiPa serving engine, /v1/ppr batches
// run on the snapshot's own artifact — after a reload neither a prep-cache
// miss nor a fresh arena appears, and no B-PPR artifact is built.
func TestPPRRunsOnServingArtifact(t *testing.T) {
	reg := obs.NewRegistry()
	_, srv, sg := pprTestServer(t, testConfig(reg))
	misses := reg.Counter(common.MetricPrepCacheMisses)

	// Rank once so the reload re-ranks eagerly, and run one batch, so both
	// kinds of Exec have drawn from the artifact's arena pool.
	for _, url := range []string{"/v1/rank?vertex=0", "/v1/ppr?seeds=1"} {
		if code := getJSON(t, srv.URL+url, nil); code != http.StatusOK {
			t.Fatalf("GET %s = %d", url, code)
		}
	}
	before := misses.Value()
	mirror := graph.NewVersioned(sg.cur.Load().g)
	stream, err := gen.NewMutationStream(mirror, 3, 64)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/admin/reload", "text/plain", reloadBody(t, mirror, stream))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload = %d", resp.StatusCode)
	}
	var doc pprDoc
	if code := getJSON(t, srv.URL+"/v1/ppr?seeds=2", &doc); code != http.StatusOK || doc.Version != 1 {
		t.Fatalf("/v1/ppr after reload = %d %+v", code, doc)
	}
	snap := sg.cur.Load()
	if got := misses.Value(); got != before {
		t.Errorf("prep-cache misses %d -> %d across reload + /v1/ppr, want none", before, got)
	}
	if st := snap.prep.ArenaStats(); st.Created != 0 || st.Reused < 2 {
		t.Errorf("reloaded artifact arena stats %+v: want every Exec on a warm arena", st)
	}
	if snap.pprPrep != nil {
		t.Error("a B-PPR artifact was built beside the HiPa serving artifact")
	}
}

// TestPPRValidationAndErrors: malformed queries must be rejected before they
// can poison a batch.
func TestPPRValidationAndErrors(t *testing.T) {
	s := newTestService(t, nil)
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	for _, tc := range []struct {
		url  string
		want int
	}{
		{"/v1/ppr?graph=nope", http.StatusNotFound},
		{"/v1/ppr?seeds=abc", http.StatusBadRequest},
		{"/v1/ppr?seeds=1,1", http.StatusBadRequest},
		{"/v1/ppr?seeds=-1", http.StatusBadRequest},
		{"/v1/ppr?seeds=99999999", http.StatusBadRequest},
		{"/v1/ppr?seeds=1&k=0", http.StatusBadRequest},
		{"/v1/ppr?seeds=1&k=x", http.StatusBadRequest},
	} {
		if code := getJSON(t, srv.URL+tc.url, nil); code != tc.want {
			t.Errorf("GET %s = %d, want %d", tc.url, code, tc.want)
		}
	}
	if resp, err := http.Post(srv.URL+"/v1/ppr?seeds=1", "text/plain", nil); err == nil {
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST /v1/ppr = %d, want 405", resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// TestPPRUnderReloadHammer drives concurrent personalized queries while
// reloads swap the snapshot underneath: every accepted query must complete,
// accounting must balance, and (with -race) the queue must be data-race
// free.
func TestPPRUnderReloadHammer(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := testConfig(reg)
	cfg.BatchMaxSize = 4
	cfg.BatchFlushMs = 5
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	sg, err := s.graph("wiki")
	if err != nil {
		t.Fatal(err)
	}

	const workers, perWorker, reloads = 4, 12, 3
	var wg sync.WaitGroup
	errs := make(chan string, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				var doc pprDoc
				url := fmt.Sprintf("%s/v1/ppr?seeds=%d&k=2", srv.URL, (w*perWorker+i)%50)
				if code := getJSON(t, url, &doc); code != http.StatusOK {
					errs <- fmt.Sprintf("%s = %d", url, code)
				} else if doc.Batch < 1 || doc.Iterations < 1 {
					errs <- fmt.Sprintf("%s: bad doc %+v", url, doc)
				}
			}
		}(w)
	}
	mirror := graph.NewVersioned(sg.cur.Load().g)
	stream, err := gen.NewMutationStream(mirror, 7, 32)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < reloads; i++ {
		resp, err := http.Post(srv.URL+"/v1/admin/reload", "text/plain", reloadBody(t, mirror, stream))
		if err != nil {
			t.Fatalf("reload %d: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reload %d = %d", i, resp.StatusCode)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	queries := reg.Counter(MetricPPRQueries, "graph", "wiki").Value()
	batches := reg.Counter(MetricPPRBatches, "graph", "wiki").Value()
	if queries != workers*perWorker {
		t.Errorf("query counter = %d, want %d", queries, workers*perWorker)
	}
	if batches < 1 || batches > queries {
		t.Errorf("batch counter = %d for %d queries", batches, queries)
	}
}
