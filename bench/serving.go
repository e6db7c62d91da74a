package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hipa"
	"hipa/internal/graph"
	"hipa/internal/serve"
)

const (
	// zipfS is the skew of the request vertex draws.
	zipfS = 1.2
	// topK and neighborLimit shape the read requests.
	topK          = 10
	neighborLimit = 32
	// reloadEvery paces the reload connection at 10 reloads per second;
	// mutationBatch is the size of each reload's batch.
	reloadEvery   = 100 * time.Millisecond
	mutationBatch = 64
)

// serveWorkload serves one graph from an HGR1 file through the program's
// HTTP handler on a loopback listener and drives it with closed-loop
// clients: a read mix (serve-read) or PPR queries beside paced reloads
// (serve-update).
type serveWorkload struct {
	cfg    config
	update bool
	setups int
	g      *hipa.Graph // the benchmark's own copy, for checks
	path   string      // the HGR1 file every service loads
	hot    []uint32    // Zipf rank -> vertex
	bodies [][]byte    // reload request bodies, one mutation batch each
	refs   refCache
	graph  map[string]metric // graph-layer timings taken while making the input
	info   []inputInfo
}

func newServeWorkload(cfg config, src edgeSource, update bool, setups int) (workload, error) {
	if update && cfg.procs < 2 {
		return nil, fmt.Errorf("serve-update needs two connections, so -procs must be at least 2")
	}
	w := &serveWorkload{cfg: cfg, update: update, setups: setups}
	n := src.vertices()
	edges := src.edges(cfg.seed, cfg.procs)
	t0 := time.Now()
	g := build(n, edges)
	t1 := time.Now()
	g.FingerprintWorkers(0)
	t2 := time.Now()
	w.path = filepath.Join(cfg.dir, fmt.Sprintf("graph-%s-%d.hgr", cfg.workload, cfg.seed))
	if err := hipa.SaveGraph(w.path, g); err != nil {
		return nil, fmt.Errorf("writing %s: %w", w.path, err)
	}
	t3 := time.Now()
	loaded, err := hipa.LoadGraph(w.path)
	if err != nil {
		return nil, fmt.Errorf("loading %s: %w", w.path, err)
	}
	t4 := time.Now()
	if loaded.Fingerprint() != g.Fingerprint() {
		return nil, fmt.Errorf("%s does not round-trip: fingerprint %x, wrote %x", w.path, loaded.Fingerprint(), g.Fingerprint())
	}
	// Built after saving, so the file holds only the out-edges, as the
	// program's own graph files do.
	g.BuildInWorkers(0)
	t5 := time.Now()
	w.graph = map[string]metric{
		"graph.build_s":       single(t1.Sub(t0).Seconds(), "s"),
		"graph.fingerprint_s": single(t2.Sub(t1).Seconds(), "s"),
		"graph.load_s":        single(t4.Sub(t3).Seconds(), "s"),
		"graph.build_in_s":    single(t5.Sub(t4).Seconds(), "s"),
	}
	w.g = g
	w.refs = refCache{g: g, byIters: map[int][]float64{}}
	w.hot = hotVertices(n, cfg.seed)
	w.info = []inputInfo{graphInfo("graph", g)}
	if update {
		batches := mutationBatches(g, cfg.seed, int(cfg.measure/reloadEvery)+1, mutationBatch)
		for _, b := range batches {
			var buf bytes.Buffer
			if err := graph.WriteMutationBatches(&buf, [][]graph.Mutation{b}); err != nil {
				return nil, err
			}
			w.bodies = append(w.bodies, buf.Bytes())
		}
		w.info = append(w.info, inputInfo{Name: "mutations", Fingerprint: mutationsFingerprint(batches)})
	}
	return w, nil
}

func (w *serveWorkload) inputs() []inputInfo     { return w.info }
func (w *serveWorkload) size() (int, int64)      { return w.g.NumVertices(), w.g.NumEdges() }
func (w *serveWorkload) probeGraph() *hipa.Graph { return w.g }

func (w *serveWorkload) close() {
	if err := os.Remove(w.path); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
}

// refCache holds reference rank vectors by iteration count: a served Exec
// stops at convergence and reports how many iterations it ran.
type refCache struct {
	mu      sync.Mutex
	g       *hipa.Graph
	byIters map[int][]float64
}

func (c *refCache) at(iters int) ([]float64, error) {
	if iters < 1 || iters > serve.DefaultIterations {
		return nil, fmt.Errorf("reported %d iterations, outside [1,%d]", iters, serve.DefaultIterations)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.byIters[iters]
	if !ok {
		r = hipa.ReferencePageRank(c.g, iters, damping)
		c.byIters[iters] = r
	}
	return r, nil
}

// server is one service behind a loopback listener.
type server struct {
	svc  *serve.Service
	http *http.Server
	url  string
	done chan struct{} // closed when Serve has returned
}

func startServer(path string) (*server, error) {
	svc, err := serve.New(serve.Config{Graphs: []serve.GraphSpec{{Name: graphName, Path: path}}})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	s := &server{svc: svc, http: &http.Server{Handler: svc.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		// Serve returns http.ErrServerClosed once stop closes the server.
		_ = s.http.Serve(ln)
	}()
	return s, nil
}

func (s *server) stop() {
	// Close fails only with the listener's close error, which cannot affect
	// a server being discarded.
	_ = s.http.Close()
	<-s.done
	s.svc.Close()
}

// httpClient returns a client holding at most one connection.
func httpClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
}

// call sends a request and decodes a 200 response into out, reading the
// body to its end so the connection is reused.
func call(cl *http.Client, method, url string, body []byte, out any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := cl.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("%s %s: %w", method, url, err)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// Response bodies, as far as the checks read them.
type (
	rankReply struct {
		Version    int64   `json:"version"`
		Vertex     int64   `json:"vertex"`
		Rank       float64 `json:"rank"`
		Iterations int     `json:"iterations"`
	}
	topReply struct {
		Version    int64   `json:"version"`
		Iterations int     `json:"iterations"`
		Top        []entry `json:"top"`
	}
	neighborsReply struct {
		Vertex    int64    `json:"vertex"`
		Degree    int      `json:"degree"`
		Neighbors []uint32 `json:"neighbors"`
	}
	reloadReply struct {
		FromVersion int64 `json:"from_version"`
		ToVersion   int64 `json:"to_version"`
	}
)

// request is one timed, checked request of a client.
type request struct {
	endpoint, url string
	body          []byte // POSTed when non-nil
	out           any
	check         func() error
}

// client is one closed-loop connection: it sends its next request when the
// previous one is answered and checked.
type client struct {
	lane   int
	cl     *http.Client
	tr     *tracer
	parent int64
	ops    *opCount
	from   time.Time            // requests sent earlier are warm-up, not timed
	lat    map[string][]float64 // seconds, correct timed requests only
}

func newClient(lane int, tr *tracer, parent int64, ops *opCount, from time.Time) *client {
	return &client{lane: lane, cl: httpClient(), tr: tr, parent: parent, ops: ops, from: from, lat: map[string][]float64{}}
}

// do sends r, timing it from send to the last byte of the response, and
// checks the answer outside the timed region. due, when not zero, is the
// time the request was due, which the latency counts from instead.
func (c *client) do(r request, due time.Time) bool {
	method := http.MethodGet
	if r.body != nil {
		method = http.MethodPost
	}
	rid := c.tr.id()
	t0 := time.Now()
	err := call(c.cl, method, r.url, r.body, r.out)
	t1 := time.Now()
	c.tr.add(r.endpoint, rid, c.parent, rid, c.lane, t0, t1)
	if err == nil {
		err = r.check()
	}
	if !c.ops.record(err) {
		return false
	}
	if due.IsZero() {
		due = t0
	}
	if !due.Before(c.from) {
		c.lat[r.endpoint] = append(c.lat[r.endpoint], t1.Sub(due).Seconds())
	}
	return true
}

func (w *serveWorkload) rankRequest(base string, v uint32) request {
	var r rankReply
	return request{endpoint: "rank", url: fmt.Sprintf("%s/v1/rank?vertex=%d", base, v), out: &r, check: func() error {
		if r.Vertex != int64(v) {
			return fmt.Errorf("rank of vertex %d answered for %d", v, r.Vertex)
		}
		ref, err := w.refs.at(r.Iterations)
		if err != nil {
			return err
		}
		return checkRank(v, r.Rank, ref)
	}}
}

func (w *serveWorkload) topkRequest(base string) request {
	var r topReply
	return request{endpoint: "topk", url: fmt.Sprintf("%s/v1/topk?k=%d", base, topK), out: &r, check: func() error {
		ref, err := w.refs.at(r.Iterations)
		if err != nil {
			return err
		}
		return checkTopK(r.Top, min(topK, w.g.NumVertices()), ref)
	}}
}

func (w *serveWorkload) neighborsRequest(base string, v uint32) request {
	var r neighborsReply
	return request{endpoint: "neighbors", url: fmt.Sprintf("%s/v1/neighbors?vertex=%d&limit=%d", base, v, neighborLimit), out: &r, check: func() error {
		return checkNeighbors(v, r.Vertex, r.Degree, r.Neighbors, w.g.OutNeighbors(v), neighborLimit)
	}}
}

// pprRequest asks for the top-k of the PPR of seed v; the answer must come
// from a graph version no older than minVersion, the last reload
// acknowledged before the request was sent.
func (w *serveWorkload) pprRequest(base string, v uint32, minVersion int64) request {
	var r topReply
	return request{endpoint: "ppr", url: fmt.Sprintf("%s/v1/ppr?seeds=%d&k=%d", base, v, topK), out: &r, check: func() error {
		if r.Version < minVersion {
			return fmt.Errorf("ppr answered from version %d after reload to %d was acknowledged", r.Version, minVersion)
		}
		return checkOrder(r.Top, min(topK, w.g.NumVertices()))
	}}
}

// reloadRequest posts mutation batch i; the version must advance by exactly
// one from the last acknowledged one.
func (w *serveWorkload) reloadRequest(base string, i int, acked *atomic.Int64) request {
	var r reloadReply
	return request{endpoint: "reload", url: base + "/v1/admin/reload", body: w.bodies[i], out: &r, check: func() error {
		if r.FromVersion != acked.Load() || r.ToVersion != r.FromVersion+1 {
			return fmt.Errorf("reload moved version %d -> %d, want %d -> %d", r.FromVersion, r.ToVersion, acked.Load(), acked.Load()+1)
		}
		acked.Store(r.ToVersion)
		return nil
	}}
}

// vertexDraw returns a client's seeded stream of request vertices.
func (w *serveWorkload) vertexDraw(lane int) (*rand.Rand, func() uint32) {
	rng := newRNG(w.cfg.seed, streamTraffic, uint64(lane))
	z := rand.NewZipf(rng, zipfS, 1, uint64(len(w.hot)-1))
	return rng, func() uint32 { return w.hot[z.Uint64()] }
}

func (w *serveWorkload) pass(tr *tracer) (*passResult, error) {
	p := newPassResult()
	root, start := tr.id(), time.Now()

	// Set-up: a service from the HGR1 file and its first answered rank
	// request, repeated; the last one serves the traffic.
	var srv *server
	var setups []float64
	for i := 0; i < w.setups; i++ {
		if srv != nil {
			srv.stop()
		}
		runtime.GC()
		sid := tr.id()
		t0 := time.Now()
		s, err := startServer(w.path)
		if err != nil {
			return nil, fmt.Errorf("starting the service: %w", err)
		}
		srv = s
		tr.add("serve_new", tr.id(), sid, 0, 0, t0, time.Now())
		c := newClient(0, tr, sid, &p.ops, t0)
		ok := c.do(w.rankRequest(srv.url, w.hot[0]), time.Time{})
		c.cl.CloseIdleConnections()
		t1 := time.Now()
		tr.add("setup", sid, root, 0, 0, t0, t1)
		if ok {
			setups = append(setups, t1.Sub(t0).Seconds())
		}
	}
	defer srv.stop()

	// The traffic starts with an untimed warm-up, which builds lazy state
	// (the B-PPR artifact) and lets the collection of the set-ups' garbage
	// finish before timing.
	runtime.GC()
	tid, tw := tr.id(), time.Now()
	t0 := tw.Add(warmup(w.cfg.measure))
	deadline := t0.Add(w.cfg.measure)
	var clients []*client
	var wg sync.WaitGroup
	run := func(fn func(c *client)) {
		c := newClient(len(clients)+1, tr, tid, &p.ops, t0)
		clients = append(clients, c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.cl.CloseIdleConnections()
			fn(c)
		}()
	}
	var acked atomic.Int64
	if w.update {
		run(func(c *client) {
			_, vertex := w.vertexDraw(c.lane)
			for time.Now().Before(deadline) {
				c.do(w.pprRequest(srv.url, vertex(), acked.Load()), time.Time{})
			}
		})
		run(func(c *client) {
			for i := range w.bodies {
				due := t0.Add(time.Duration(i) * reloadEvery)
				if !due.Before(deadline) {
					return
				}
				time.Sleep(time.Until(due))
				c.do(w.reloadRequest(srv.url, i, &acked), due)
			}
		})
	} else {
		for i := 0; i < w.cfg.procs; i++ {
			run(func(c *client) {
				rng, vertex := w.vertexDraw(c.lane)
				for time.Now().Before(deadline) {
					switch x := rng.IntN(10); {
					case x < 6:
						c.do(w.rankRequest(srv.url, vertex()), time.Time{})
					case x < 8:
						c.do(w.topkRequest(srv.url), time.Time{})
					default:
						c.do(w.neighborsRequest(srv.url, vertex()), time.Time{})
					}
				}
			})
		}
	}
	wg.Wait()
	t1 := time.Now()
	tr.add("traffic", tid, root, 0, 0, tw, t1)
	tr.add("workload", root, 0, 0, 0, start, t1)

	lat := map[string][]float64{}
	for _, c := range clients {
		for ep, l := range c.lat {
			lat[ep] = append(lat[ep], l...)
		}
	}
	var served []float64
	if w.update {
		served = lat["ppr"]
		p.e2e["reload_p50_ms"] = summarize(lat["reload"], 1e3, "ms", medianOf)
		p.e2e["reload_p95_ms"] = summarize(lat["reload"], 1e3, "ms", pct(0.95))
	} else {
		for _, ep := range []string{"rank", "topk", "neighbors"} {
			served = append(served, lat[ep]...)
		}
	}
	p.e2e["setup_s"] = summarize(setups, 1, "s", medianOf)
	p.e2e["qps"] = single(float64(len(served))/t1.Sub(t0).Seconds(), "1/s")
	addLatencies(p.e2e, served)
	if tr != nil {
		for k, v := range w.graph {
			p.layers[k] = v
		}
		for ep, l := range lat {
			var sum float64
			for _, x := range l {
				sum += x
			}
			p.clientMean[ep] = sum / float64(len(l))
			if ep != "reload" {
				p.layers["serve."+ep+"_p50_ms"] = summarize(l, 1e3, "ms", medianOf)
			}
		}
	}
	return p, nil
}
