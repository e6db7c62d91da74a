package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"hipa/internal/engines/common"
	"hipa/internal/graph"
	"hipa/internal/obs/telemetry"
)

// maxReloadBodyBytes caps a POST /v1/admin/reload body (about four million
// mutations); a longer stream is refused with 413 before it is applied.
const maxReloadBodyBytes = 64 << 20

// statusClientClosed is recorded for a request whose caller went away before
// its answer was ready (nginx's 499; net/http names no such status).
const statusClientClosed = 499

// Handler returns the service's full routing table: the /v1 query and admin
// endpoints plus the telemetry surface (/metrics, /healthz, /runs,
// /debug/pprof/) on the same listener, every endpoint wrapped in the
// latency/status instrumentation.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/v1/rank", s.instrument("rank", s.handleRank))
	mux.Handle("/v1/ppr", s.instrument("ppr", s.handlePPR))
	mux.Handle("/v1/topk", s.instrument("topk", s.handleTopK))
	mux.Handle("/v1/neighbors", s.instrument("neighbors", s.handleNeighbors))
	mux.Handle("/v1/graphs", s.instrument("graphs", s.handleGraphs))
	mux.Handle("/v1/admin/reload", s.instrument("reload", s.handleReload))

	tele := telemetry.NewMux(s.metrics.reg, nil)
	mux.Handle("/metrics", s.instrument("metrics", tele.ServeHTTP))
	mux.Handle("/healthz", tele)
	mux.Handle("/runs", tele)
	mux.Handle("/debug/pprof/", tele)
	mux.HandleFunc("/", s.handleIndex)
	return mux
}

// statusWriter captures the response code for the request counters.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps an endpoint with the per-endpoint latency histogram, the
// per-status request counter, and the in-flight gauge. The histogram and the
// 200 counter are resolved here, once; other status codes are rare enough to
// be looked up per request.
func (s *Service) instrument(endpoint string, h http.HandlerFunc) http.Handler {
	seconds := s.metrics.reg.Histogram(MetricHTTPSeconds, "endpoint", endpoint)
	ok := s.metrics.httpRequests(endpoint, strconv.Itoa(http.StatusOK))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.metrics.inflight.Add(1)
		defer s.metrics.inflight.Add(-1)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		seconds.Observe(time.Since(start).Seconds())
		if sw.code == http.StatusOK {
			ok.Inc()
		} else {
			s.metrics.httpRequests(endpoint, strconv.Itoa(sw.code)).Inc()
		}
	})
}

// httpError replies with a JSON error document.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
	}{fmt.Sprintf(format, args...)})
}

// writeJSON replies 200 with an indented JSON document.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// requestGraph resolves the ?graph= parameter of the request's query q,
// defaulting to the registry's only entry when the config serves exactly one
// graph. Handlers parse the query once and hand q to every parser.
func (s *Service) requestGraph(q url.Values) (*servingGraph, error) {
	name := q.Get("graph")
	if name == "" {
		if len(s.order) != 1 {
			return nil, fmt.Errorf("?graph= is required (serving %d graphs)", len(s.order))
		}
		name = s.order[0]
	}
	return s.graph(name)
}

// parseVertex parses the ?vertex= parameter and bounds-checks it against g.
func parseVertex(q url.Values, g *graph.Graph) (graph.VertexID, error) {
	raw := q.Get("vertex")
	if raw == "" {
		return 0, fmt.Errorf("?vertex= is required")
	}
	v, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad vertex %q", raw)
	}
	if v < 0 || v >= int64(g.NumVertices()) {
		return 0, fmt.Errorf("vertex %d out of range [0, %d)", v, g.NumVertices())
	}
	return graph.VertexID(v), nil
}

// handleRank serves GET /v1/rank?graph=NAME&vertex=V: one vertex's PageRank
// under the snapshot current at arrival. ?recompute=1 forces a fresh Exec
// (still coalescing with any identical in-flight run) — the knob the smoke
// test leans on to demonstrate Exec coalescing under load.
func (s *Service) handleRank(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	q := r.URL.Query()
	sg, err := s.requestGraph(q)
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	snap := sg.cur.Load()
	v, err := parseVertex(q, snap.g)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	recompute := q.Get("recompute") == "1"
	res, err := s.ranksFor(sg, snap, recompute)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "exec: %v", err)
		return
	}
	writeJSON(w, struct {
		Graph      string        `json:"graph"`
		Version    graph.Version `json:"version"`
		Vertex     int64         `json:"vertex"`
		Rank       float64       `json:"rank"`
		Iterations int           `json:"iterations"`
	}{sg.name, snap.ver, int64(v), float64(res.Ranks[v]), res.Iterations})
}

// parseSeeds parses the ?seeds= parameter (comma-separated vertex IDs,
// empty = the uniform restart vector) and validates against g: in range,
// duplicate-free — ExecBatch would reject the whole batch otherwise, so a
// malformed query must never reach its batch-mates.
func parseSeeds(q url.Values, g *graph.Graph) ([]graph.VertexID, error) {
	raw := q.Get("seeds")
	if raw == "" {
		return nil, nil
	}
	parts := strings.Split(raw, ",")
	seeds := make([]graph.VertexID, 0, len(parts))
	seen := make(map[graph.VertexID]struct{}, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q", p)
		}
		if v < 0 || v >= int64(g.NumVertices()) {
			return nil, fmt.Errorf("seed %d out of range [0, %d)", v, g.NumVertices())
		}
		id := graph.VertexID(v)
		if _, dup := seen[id]; dup {
			return nil, fmt.Errorf("duplicate seed %d", v)
		}
		seen[id] = struct{}{}
		seeds = append(seeds, id)
	}
	return seeds, nil
}

// handlePPR serves GET /v1/ppr?graph=NAME&seeds=1,2,3&k=K: the K
// highest-ranked vertices of a personalized PageRank restarted at the seed
// set (empty seeds = plain PageRank). Requests enqueue on the graph's
// batching queue and are served as one batched B-PPR Exec per flush; a full
// queue replies 503 immediately. The response reports the version the query
// pinned at arrival and the width of the batch that served it.
func (s *Service) handlePPR(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	q := r.URL.Query()
	sg, err := s.requestGraph(q)
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	snap := sg.cur.Load()
	seeds, err := parseSeeds(q, snap.g)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	k, err := parseK(q)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	req := &pprReq{ctx: r.Context(), arrived: time.Now(), seeds: seeds, k: k, snap: snap, resp: make(chan pprResp, 1)}
	if !s.enqueuePPR(sg, req) {
		httpError(w, http.StatusServiceUnavailable, "ppr queue full (depth %d)", cap(sg.pprCh))
		return
	}
	sg.m.pprQueries.Inc()
	var resp pprResp
	select {
	case resp = <-req.resp:
	case <-r.Context().Done():
		// The caller gave up; the collector drops the request before its
		// batch flushes.
		httpError(w, statusClientClosed, "request cancelled")
		return
	case <-s.done:
		httpError(w, http.StatusServiceUnavailable, "service shutting down")
		return
	}
	if resp.err != nil {
		httpError(w, http.StatusInternalServerError, "exec: %v", resp.err)
		return
	}
	top := rankEntries(resp.ranks, common.TopK(resp.ranks, k))
	writeJSON(w, struct {
		Graph      string           `json:"graph"`
		Version    graph.Version    `json:"version"`
		Seeds      []graph.VertexID `json:"seeds"`
		K          int              `json:"k"`
		Batch      int              `json:"batch"`
		Iterations int              `json:"iterations"`
		Top        []rankEntry      `json:"top"`
	}{sg.name, snap.ver, seeds, len(top), resp.batch, resp.iterations, top})
}

// parseK parses the ?k= parameter of /v1/topk and /v1/ppr (default 10).
func parseK(q url.Values) (int, error) {
	raw := q.Get("k")
	if raw == "" {
		return 10, nil
	}
	k, err := strconv.Atoi(raw)
	if err != nil || k <= 0 {
		return 0, fmt.Errorf("bad k %q", raw)
	}
	return k, nil
}

// rankEntry is one line of a top-k listing.
type rankEntry struct {
	Vertex graph.VertexID `json:"vertex"`
	Rank   float64        `json:"rank"`
}

// rankEntries lists ids with their ranks, in the order given.
func rankEntries(ranks []float32, ids []graph.VertexID) []rankEntry {
	top := make([]rankEntry, len(ids))
	for i, id := range ids {
		top[i] = rankEntry{id, float64(ranks[id])}
	}
	return top
}

// handleTopK serves GET /v1/topk?graph=NAME&k=K: the K highest-ranked
// vertices with their scores, highest first, ties by ascending vertex ID.
// The listing is a prefix of the rank result's cached order, so a request
// costs O(K) once the first /v1/topk on that result has sorted it.
func (s *Service) handleTopK(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	q := r.URL.Query()
	sg, err := s.requestGraph(q)
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	k, err := parseK(q)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	snap := sg.cur.Load()
	res, err := s.ranksFor(sg, snap, false)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "exec: %v", err)
		return
	}
	order := res.Order()
	top := rankEntries(res.Ranks, order[:min(k, len(order))])
	writeJSON(w, struct {
		Graph      string        `json:"graph"`
		Version    graph.Version `json:"version"`
		K          int           `json:"k"`
		Iterations int           `json:"iterations"`
		Top        []rankEntry   `json:"top"`
	}{sg.name, snap.ver, len(top), res.Iterations, top})
}

// handleNeighbors serves GET /v1/neighbors?graph=NAME&vertex=V&dir=out: one
// vertex's adjacency under the current snapshot (dir out|in, default out;
// ?limit= truncates the listing, degree always reports the full count).
func (s *Service) handleNeighbors(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	q := r.URL.Query()
	sg, err := s.requestGraph(q)
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	snap := sg.cur.Load()
	v, err := parseVertex(q, snap.g)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var adj []graph.VertexID
	dir := q.Get("dir")
	switch dir {
	case "", "out":
		dir = "out"
		adj = snap.g.OutNeighbors(v)
	case "in":
		adj = snap.g.InNeighbors(v)
	default:
		httpError(w, http.StatusBadRequest, "bad dir %q (want out or in)", dir)
		return
	}
	degree := len(adj)
	if raw := q.Get("limit"); raw != "" {
		limit, err := strconv.Atoi(raw)
		if err != nil || limit < 0 {
			httpError(w, http.StatusBadRequest, "bad limit %q", raw)
			return
		}
		if limit < len(adj) {
			adj = adj[:limit]
		}
	}
	writeJSON(w, struct {
		Graph     string           `json:"graph"`
		Version   graph.Version    `json:"version"`
		Vertex    int64            `json:"vertex"`
		Dir       string           `json:"dir"`
		Degree    int              `json:"degree"`
		Neighbors []graph.VertexID `json:"neighbors"`
	}{sg.name, snap.ver, int64(v), dir, degree, adj})
}

// handleGraphs serves GET /v1/graphs: the registry listing with per-graph
// size, version, and reload count.
func (s *Service) handleGraphs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	type entry struct {
		Name     string        `json:"name"`
		Version  graph.Version `json:"version"`
		Vertices int           `json:"vertices"`
		Edges    int64         `json:"edges"`
		Reloads  int64         `json:"reloads"`
		Ranked   bool          `json:"ranked"`
	}
	var out []entry
	for _, name := range s.order {
		sg := s.graphs[name]
		snap := sg.cur.Load()
		snap.mu.Lock()
		ranked := snap.ranks != nil
		snap.mu.Unlock()
		out = append(out, entry{name, snap.ver, snap.g.NumVertices(), snap.g.NumEdges(), sg.reloads.Load(), ranked})
	}
	writeJSON(w, struct {
		Engine string  `json:"engine"`
		Graphs []entry `json:"graphs"`
	}{s.engine.Name(), out})
}

// handleReload serves POST /v1/admin/reload?graph=NAME with a mutation
// stream body ("+ src dst" / "- src dst" / "commit" lines): the versioned
// graph advances, the artifact is patched, and the serving snapshot swaps
// atomically. In-flight queries complete on the snapshot they started with.
// A body over maxReloadBodyBytes is refused with 413 and applies nothing.
func (s *Service) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST a mutation stream")
		return
	}
	name := r.URL.Query().Get("graph")
	if name == "" {
		if len(s.order) != 1 {
			httpError(w, http.StatusBadRequest, "?graph= is required")
			return
		}
		name = s.order[0]
	}
	rep, err := s.Reload(name, http.MaxBytesReader(w, r.Body, maxReloadBodyBytes))
	if err != nil {
		code := http.StatusBadRequest
		if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		httpError(w, code, "reload: %v", err)
		return
	}
	writeJSON(w, rep)
}

func (s *Service) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		httpError(w, http.StatusNotFound, "no such endpoint %q", r.URL.Path)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "hipaserve (%s engine, up %s)\n", s.engine.Name(), time.Since(s.started).Round(time.Second))
	fmt.Fprintln(w, "  GET  /v1/rank?graph=&vertex=[&recompute=1]  one vertex's PageRank")
	fmt.Fprintln(w, "  GET  /v1/ppr?graph=&seeds=1,2,3&k=          batched personalized PageRank")
	fmt.Fprintln(w, "  GET  /v1/topk?graph=&k=                     highest-ranked vertices")
	fmt.Fprintln(w, "  GET  /v1/neighbors?graph=&vertex=[&dir=]    adjacency listing")
	fmt.Fprintln(w, "  GET  /v1/graphs                             serving registry")
	fmt.Fprintln(w, "  POST /v1/admin/reload?graph=                apply a mutation stream")
	fmt.Fprintln(w, "  /metrics /healthz /runs /debug/pprof/       telemetry")
}
