// Package serve is the long-running PageRank service behind cmd/hipaserve:
// a registry of graphs loaded from a config, each held hot as a
// common.Prepared artifact, queried for ranks / top-k / neighborhoods under
// real concurrency, and mutated in place through graceful reloads.
//
// The serving concurrency model has three layers:
//
//   - Every graph serves from an immutable *snapshot* (graph version +
//     Prepared artifact + lazily computed rank vector) published through an
//     atomic pointer. Queries load the pointer once and work against that
//     snapshot for their whole lifetime, so a reload never changes data
//     under a running request.
//   - Rank computation is a per-snapshot singleflight: identical in-flight
//     recomputes coalesce into one Exec (the prep cache's coalescing,
//     generalized to the iterative phase). The first caller runs the
//     engine; everyone who arrives while it runs waits for the same result.
//   - Actual Execs pass through a process-wide semaphore sized to the
//     machine (default GOMAXPROCS), bounding how many execbuf arenas are in
//     flight at once — a traffic burst queues instead of allocating
//     O(V)-sized scratch per request.
//
// Reload (POST /v1/admin/reload) applies a mutation stream through
// graph.Versioned, patches the artifact forward with Prepared.Advance
// (bit-identical to a cold Prepare; cold rebuild as fallback), re-ranks
// warm from the previous snapshot's converged ranks, and atomically swaps
// the new snapshot in. In-flight queries on the old snapshot complete
// untouched.
package serve

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hipa/internal/engines/bppr"
	"hipa/internal/engines/common"
	"hipa/internal/gen"
	"hipa/internal/graph"
	"hipa/internal/harness"
	"hipa/internal/machine"
	"hipa/internal/obs"
	"hipa/internal/platform"
)

// Defaults for Config zero fields.
const (
	// DefaultIterations caps a serving Exec; with the default tolerance the
	// engines converge long before the cap on every catalog graph.
	DefaultIterations = 100
	// DefaultTolerance is the serving convergence tolerance. Serving wants
	// "converged", not the paper's fixed-20-iterations timing methodology;
	// warm reload re-ranks finish in a handful of iterations at this
	// setting.
	DefaultTolerance = 1e-7
	// DefaultPrepCacheCapacity bounds the shared artifact cache.
	DefaultPrepCacheCapacity = 16
	// DefaultPreset is the machine preset whose topology drives
	// partitioning decisions.
	DefaultPreset = "skylake"
	// DefaultEngine serves with HiPa — the paper's engine, and one of the
	// two that support warm restarts after a reload.
	DefaultEngine = "hipa"
)

// GraphSpec names one graph of the serving registry: either a binary HGR1
// file (Path) or a generated catalog analog (Dataset + Divisor).
type GraphSpec struct {
	// Name is the registry key queries address the graph by.
	Name string `json:"name"`
	// Path is a binary HGR1 graph file to load.
	Path string `json:"path,omitempty"`
	// Dataset generates a catalog analog instead of loading a file
	// (journal, pld, wiki, kron, twitter, mpi).
	Dataset string `json:"dataset,omitempty"`
	// Divisor scales the generated dataset and the machine the options are
	// derived from; 0 means 1 for Path graphs and gen.DefaultDivisor for
	// Dataset graphs.
	Divisor int `json:"divisor,omitempty"`
}

// Config is the hipaserve configuration, loadable from JSON.
type Config struct {
	// Listen is the HTTP listen address (cmd/hipaserve's concern; the
	// Service itself only builds the handler).
	Listen string `json:"listen,omitempty"`
	// Engine picks the serving engine by harness name or alias; engines
	// that cannot warm-start re-rank cold after reloads. Default "hipa".
	Engine string `json:"engine,omitempty"`
	// Preset is the machine preset partitioning geometry derives from.
	Preset string `json:"preset,omitempty"`
	// Iterations caps each Exec (default DefaultIterations).
	Iterations int `json:"iterations,omitempty"`
	// Damping is the PageRank damping factor (default 0.85).
	Damping float64 `json:"damping,omitempty"`
	// Tolerance is the convergence tolerance (default DefaultTolerance).
	Tolerance float64 `json:"tolerance,omitempty"`
	// Threads is the per-Exec worker count. The default is GOMAXPROCS per
	// NUMA node of the preset, capped at the preset's logical cores: HiPa
	// splits its threads evenly over the nodes, so a graph one node holds
	// still gets GOMAXPROCS threads. The goroutines that run them stay
	// min(Threads, GOMAXPROCS) (Options.GoParallelism).
	Threads int `json:"threads,omitempty"`
	// MaxConcurrentExecs bounds Execs in flight across all graphs (default
	// GOMAXPROCS). Queued Execs wait; their wait time is observed on
	// hipa_serve_exec_wait_seconds.
	MaxConcurrentExecs int `json:"max_concurrent_execs,omitempty"`
	// BatchMaxSize flushes a /v1/ppr batch at this width (default
	// DefaultBatchMaxSize, clamped to bppr.MaxBatch).
	BatchMaxSize int `json:"batch_max_size,omitempty"`
	// BatchFlushMs is the /v1/ppr flush deadline in milliseconds: how long
	// the first request of a batch waits for batch-mates while another batch
	// of its graph is in flight (default DefaultBatchFlushMs). A batch that
	// opens on an idle graph flushes at once.
	BatchFlushMs int `json:"batch_flush_ms,omitempty"`
	// BatchQueueDepth bounds queued /v1/ppr requests per graph; a full queue
	// rejects with 503 (default DefaultBatchQueueDepth).
	BatchQueueDepth int `json:"batch_queue_depth,omitempty"`
	// PrepCacheCapacity bounds the shared preprocessing-artifact cache.
	PrepCacheCapacity int `json:"prep_cache_capacity,omitempty"`
	// Graphs is the serving registry. At least one entry is required.
	Graphs []GraphSpec `json:"graphs"`
	// Registry receives the serving metrics (obs.Default() when nil).
	// Injected by tests; not part of the JSON config.
	Registry *obs.Registry `json:"-"`
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Engine == "" {
		c.Engine = DefaultEngine
	}
	if c.Preset == "" {
		c.Preset = DefaultPreset
	}
	if c.Iterations == 0 {
		c.Iterations = DefaultIterations
	}
	if c.Damping == 0 {
		c.Damping = common.DefaultDamping
	}
	if c.Tolerance == 0 {
		c.Tolerance = DefaultTolerance
	}
	if c.Threads == 0 {
		c.Threads = defaultThreads(c.Preset)
	}
	if c.MaxConcurrentExecs == 0 {
		c.MaxConcurrentExecs = runtime.GOMAXPROCS(0)
	}
	if c.PrepCacheCapacity == 0 {
		c.PrepCacheCapacity = DefaultPrepCacheCapacity
	}
	if c.BatchMaxSize == 0 {
		c.BatchMaxSize = DefaultBatchMaxSize
	}
	if c.BatchMaxSize > bppr.MaxBatch {
		c.BatchMaxSize = bppr.MaxBatch
	}
	if c.BatchFlushMs == 0 {
		c.BatchFlushMs = DefaultBatchFlushMs
	}
	if c.BatchQueueDepth == 0 {
		c.BatchQueueDepth = DefaultBatchQueueDepth
	}
	return c
}

// defaultThreads is the zero Config.Threads: GOMAXPROCS threads on every
// NUMA node of the preset, capped at its logical cores. An unknown preset
// gets GOMAXPROCS; loading a graph then reports the preset.
func defaultThreads(preset string) int {
	procs := runtime.GOMAXPROCS(0)
	mk, ok := machine.Presets[preset]
	if !ok {
		return procs
	}
	m := mk()
	return min(procs*m.NUMANodes, m.LogicalCores())
}

// Service is the serving core: the graph registry, the engine, the Exec
// semaphore, and the metrics. Build with New, mount Handler on a server.
type Service struct {
	cfg    Config
	engine common.Engine
	prep   *common.PrepCache
	sem    chan struct{}

	// done stops the per-graph batching collectors; closed by Close.
	done      chan struct{}
	closeOnce sync.Once

	// The registry is fixed once New returns, so lookups take no lock.
	order  []string // registry listing order = config order
	graphs map[string]*servingGraph

	metrics *serveMetrics
	started time.Time
}

// Close stops the service's background goroutines (the /v1/ppr batching
// collectors); pending queued requests fail with an error. Safe to call more
// than once. The HTTP server's lifecycle is the caller's concern.
func (s *Service) Close() {
	s.closeOnce.Do(func() { close(s.done) })
}

// servingGraph is one registry entry: a versioned graph and the atomically
// swapped serving snapshot. Reloads are serialized per graph.
type servingGraph struct {
	name string
	spec GraphSpec
	opts common.Options
	vg   *graph.Versioned
	cur  atomic.Pointer[snapshot]
	m    graphMetrics

	// pprCh feeds the graph's /v1/ppr batching collector, started on first
	// use by pprOnce (see queue.go).
	pprCh   chan *pprReq
	pprOnce sync.Once

	reloadMu sync.Mutex
	reloads  atomic.Int64
}

// snapshot is an immutable serving state: one graph version, its Prepared
// artifact, and the (lazily computed, singleflight-coalesced) rank vector.
// Only the rank cache behind mu mutates after publication.
type snapshot struct {
	ver  graph.Version
	g    *graph.Graph
	prep *common.Prepared
	// warmRanks/warmDelta seed this snapshot's Exec from the previous
	// version's converged ranks (nil = cold start). Only set when the
	// engine supports warm starts.
	warmRanks []float32
	warmDelta *graph.Delta

	mu     sync.Mutex
	ranks  *rankResult
	flight *rankFlight

	// pprPrep is the B-PPR artifact of this snapshot's version when the
	// serving engine is outside the HiPa family, built at most once on first
	// /v1/ppr demand (see queue.go).
	pprOnce sync.Once
	pprPrep *common.Prepared
	pprErr  error
}

// rankResult is one completed Exec's outcome, shared by every request that
// hit the cache or coalesced onto the run. It is immutable apart from the
// top-k order, sorted once on first demand: a reload or recompute yields a
// new result and with it a new order.
type rankResult struct {
	Ranks      []float32
	Iterations int
	Seconds    float64

	orderOnce sync.Once
	order     []graph.VertexID
}

// Order returns every vertex in top-k order (common.RankOrder), sorting on
// the first call. Only /v1/topk asks for it, so neither the Exec nor a
// reload's eager re-rank pays for the sort.
func (r *rankResult) Order() []graph.VertexID {
	r.orderOnce.Do(func() { r.order = common.RankOrder(r.Ranks) })
	return r.order
}

// rankFlight is an in-progress Exec other callers can join.
type rankFlight struct {
	done chan struct{}
	res  *rankResult
	err  error
}

// New builds the service: loads or generates every configured graph,
// prepares its artifact (hot from the first request), and wires the
// metrics. Rank vectors are computed on first demand.
func New(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Graphs) == 0 {
		return nil, fmt.Errorf("serve: config lists no graphs")
	}
	eng, err := harness.EngineByName(cfg.Engine)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.Default()
	}
	s := &Service{
		cfg:     cfg,
		engine:  eng,
		prep:    common.NewPrepCache(cfg.PrepCacheCapacity),
		sem:     make(chan struct{}, cfg.MaxConcurrentExecs),
		done:    make(chan struct{}),
		graphs:  map[string]*servingGraph{},
		metrics: newServeMetrics(reg),
		started: time.Now(),
	}
	s.prep.Instrument(reg)
	for _, spec := range cfg.Graphs {
		if spec.Name == "" {
			return nil, fmt.Errorf("serve: graph spec without a name")
		}
		if _, dup := s.graphs[spec.Name]; dup {
			return nil, fmt.Errorf("serve: duplicate graph name %q", spec.Name)
		}
		sg, err := s.loadGraph(spec)
		if err != nil {
			return nil, fmt.Errorf("serve: graph %q: %w", spec.Name, err)
		}
		s.graphs[spec.Name] = sg
		s.order = append(s.order, spec.Name)
		sg.m.version.Set(float64(sg.cur.Load().ver))
	}
	return s, nil
}

// loadGraph materializes one GraphSpec into a serving entry with a prepared
// artifact.
func (s *Service) loadGraph(spec GraphSpec) (*servingGraph, error) {
	var (
		g   *graph.Graph
		err error
	)
	divisor := spec.Divisor
	switch {
	case spec.Path != "" && spec.Dataset != "":
		return nil, fmt.Errorf("spec has both path and dataset")
	case spec.Path != "":
		if divisor == 0 {
			divisor = 1
		}
		g, err = graph.LoadBinary(spec.Path)
	case spec.Dataset != "":
		if divisor == 0 {
			divisor = gen.DefaultDivisor
		}
		g, err = gen.GenerateByName(spec.Dataset, divisor)
	default:
		return nil, fmt.Errorf("spec needs a path or a dataset")
	}
	if err != nil {
		return nil, err
	}
	mk, ok := machine.Presets[s.cfg.Preset]
	if !ok {
		return nil, fmt.Errorf("unknown machine preset %q", s.cfg.Preset)
	}
	m := machine.Scaled(mk(), divisor)
	opts := common.Options{
		Machine:    m,
		Platform:   platform.NewNative(m), // serving is real wall-clock, not simulation
		Iterations: s.cfg.Iterations,
		Damping:    s.cfg.Damping,
		Tolerance:  s.cfg.Tolerance,
		Threads:    s.cfg.Threads,
		PrepCache:  s.prep,
	}
	prep, err := s.prepare(g, opts)
	if err != nil {
		return nil, err
	}
	sg := &servingGraph{
		name: spec.Name, spec: spec, opts: opts, vg: graph.NewVersioned(g),
		m:     s.metrics.forGraph(spec.Name),
		pprCh: make(chan *pprReq, s.cfg.BatchQueueDepth),
	}
	sg.cur.Store(&snapshot{ver: sg.vg.Version(), g: g, prep: prep})
	return sg, nil
}

// EngineName reports the serving engine's registry name.
func (s *Service) EngineName() string { return s.engine.Name() }

// graph resolves a registry entry by name.
func (s *Service) graph(name string) (*servingGraph, error) {
	sg, ok := s.graphs[name]
	if !ok {
		return nil, fmt.Errorf("unknown graph %q", name)
	}
	return sg, nil
}

// warmable reports whether the serving engine accepts Options.Warm (HiPa
// dense restart, Delta-PR sparse); the others reject warm starts loudly and
// re-rank cold after reloads.
func (s *Service) warmable() bool {
	switch s.engine.Name() {
	case "HiPa", "Delta-PR":
		return true
	}
	return false
}

// ranksFor returns snap's rank vector, computing it at most once per
// concurrent wave: the caller either hits the snapshot cache, joins an
// in-flight Exec (coalesced), or runs the Exec itself under the process
// semaphore. recompute bypasses the cache but still coalesces with any
// run already in flight — N identical concurrent recomputes execute once.
func (s *Service) ranksFor(sg *servingGraph, snap *snapshot, recompute bool) (*rankResult, error) {
	snap.mu.Lock()
	if snap.ranks != nil && !recompute {
		res := snap.ranks
		snap.mu.Unlock()
		sg.m.rankCacheHits.Inc()
		return res, nil
	}
	if fl := snap.flight; fl != nil {
		snap.mu.Unlock()
		sg.m.execCoalesced.Inc()
		<-fl.done
		return fl.res, fl.err
	}
	fl := &rankFlight{done: make(chan struct{})}
	snap.flight = fl
	snap.mu.Unlock()

	res, err := s.execSnapshot(sg, snap)

	snap.mu.Lock()
	snap.flight = nil
	if err == nil {
		snap.ranks = res
	}
	snap.mu.Unlock()
	fl.res, fl.err = res, err
	close(fl.done)
	return res, err
}

// prepare builds (or fetches) the serving artifact of g and caps its arena
// pool (capArenas).
func (s *Service) prepare(g *graph.Graph, opts common.Options) (*common.Prepared, error) {
	prep, err := s.engine.Prepare(g, opts)
	if err == nil {
		s.capArenas(prep)
	}
	return prep, err
}

// capArenas sizes an artifact's arena pool to the Execs that can hold one
// of its arenas at once: the Exec semaphore's MaxConcurrentExecs, plus one
// for a reload, whose warm re-rank runs on the artifact about to be
// published while Execs on the live one still return their arenas there.
// Below that, overlapped /v1/ppr, /v1/rank and reload Execs drop arenas on
// return and create them again.
func (s *Service) capArenas(prep *common.Prepared) {
	prep.SetArenaCap(s.cfg.MaxConcurrentExecs + 1)
}

// execSnapshot runs one engine Exec for snap under the concurrency
// semaphore, warm-seeded when the snapshot carries a previous version's
// ranks and the engine supports it.
func (s *Service) execSnapshot(sg *servingGraph, snap *snapshot) (*rankResult, error) {
	wait := time.Now()
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	s.metrics.execWait.Observe(time.Since(wait).Seconds())

	o := sg.opts
	if snap.warmRanks != nil && s.warmable() {
		o.Warm = &common.WarmStart{Ranks: snap.warmRanks, Delta: snap.warmDelta}
	}
	res, err := s.engine.Exec(snap.prep, o)
	if err != nil {
		return nil, err
	}
	sg.m.execs.Inc()
	return &rankResult{Ranks: res.Ranks, Iterations: res.Iterations, Seconds: res.WallSeconds}, nil
}

// ReloadReport summarizes one applied mutation stream.
type ReloadReport struct {
	Graph       string        `json:"graph"`
	FromVersion graph.Version `json:"from_version"`
	ToVersion   graph.Version `json:"to_version"`
	Batches     int           `json:"batches"`
	Inserted    int           `json:"inserted"`
	Deleted     int           `json:"deleted"`
	Perturbed   int           `json:"perturbed"`
	// Prep is "patched" when every batch advanced incrementally, "rebuilt"
	// when any step fell back to a cold build.
	Prep        string  `json:"prep"`
	PrepSeconds float64 `json:"prep_seconds"`
	// Iterations/ExecSeconds describe the eager warm re-rank (0 when the
	// old snapshot had no computed ranks — the new one stays lazy too).
	Iterations  int     `json:"iterations"`
	ExecSeconds float64 `json:"exec_seconds"`
	// Warm reports whether the re-rank was seeded from the previous
	// version's ranks.
	Warm bool `json:"warm"`
}

// Reload applies a mutation stream to the named graph and swaps the serving
// snapshot: each batch advances the versioned graph, the Prepared artifact
// is patched forward (cold rebuild on fallback), the new version is
// re-ranked warm from the previous snapshot's converged ranks, and the new
// snapshot is published atomically. In-flight queries keep the snapshot
// they started with; requests arriving after the swap see the new version.
// Reloads of one graph are serialized; different graphs reload in parallel.
func (s *Service) Reload(name string, r io.Reader) (*ReloadReport, error) {
	batches, err := graph.ReadMutationBatches(r)
	if err != nil {
		return nil, fmt.Errorf("mutation stream: %w", err)
	}
	if len(batches) == 0 {
		return nil, fmt.Errorf("mutation stream holds no batches (finish each batch with a 'commit' line)")
	}
	sg, err := s.graph(name)
	if err != nil {
		return nil, err
	}

	sg.reloadMu.Lock()
	defer sg.reloadMu.Unlock()
	start := time.Now()
	cur := sg.cur.Load()
	rep := &ReloadReport{Graph: name, FromVersion: cur.ver, Batches: len(batches), Prep: "patched"}
	prep := cur.prep
	incremental := true
	for i, b := range batches {
		from := sg.vg.Version()
		ver, err := sg.vg.ApplyBatch(b)
		if err != nil {
			// ApplyBatch validates before mutating, so the graph is
			// unchanged by the failing batch; earlier batches of this
			// request stay applied but unpublished — the serving snapshot
			// still points at the pre-reload version, and the next
			// successful reload folds them in.
			return nil, fmt.Errorf("batch %d: %w", i+1, err)
		}
		d, derr := sg.vg.DeltaBetween(from, ver)
		var np *common.Prepared
		if derr == nil {
			if np, err = prep.Advance(d, sg.opts); err == nil {
				s.capArenas(np)
			}
			rep.Inserted += d.Inserted
			rep.Deleted += d.Deleted
		}
		if derr != nil || err != nil {
			// Compaction invalidated the delta base, or the patch path
			// refused — rebuild cold at the new version.
			g, gerr := sg.vg.GraphAt(ver)
			if gerr != nil {
				return nil, fmt.Errorf("batch %d: %w", i+1, gerr)
			}
			if np, err = s.prepare(g, sg.opts); err != nil {
				return nil, fmt.Errorf("batch %d: cold rebuild: %w", i+1, err)
			}
			np.Follow(prep)
			incremental = false
		} else if !np.Incremental {
			incremental = false
		}
		prep = np
	}
	if !incremental {
		rep.Prep = "rebuilt"
	}
	rep.ToVersion = sg.vg.Version()
	rep.PrepSeconds = time.Since(start).Seconds()

	next := &snapshot{ver: rep.ToVersion, g: prep.Graph(), prep: prep}
	cur.mu.Lock()
	prevRanks := cur.ranks
	cur.mu.Unlock()
	if prevRanks != nil && s.warmable() {
		next.warmRanks = prevRanks.Ranks
		// The combined delta seeds Delta-PR's sparse frontier; when it is
		// unavailable (compaction) the warm start is dense.
		if d, err := sg.vg.DeltaBetween(rep.FromVersion, rep.ToVersion); err == nil {
			next.warmDelta = d
		}
		rep.Perturbed = perturbedOf(next.warmDelta)
	}
	// Re-rank eagerly when the old snapshot was serving ranks, so the swap
	// never exposes a cold-start latency cliff to rank/topk traffic; a
	// never-queried graph stays lazy.
	if prevRanks != nil {
		res, err := s.ranksFor(sg, next, false)
		if err != nil {
			return nil, fmt.Errorf("re-rank at version %d: %w", rep.ToVersion, err)
		}
		rep.Iterations = res.Iterations
		rep.ExecSeconds = res.Seconds
		rep.Warm = next.warmRanks != nil
	}
	sg.cur.Store(next)
	cur.prep.Supersede(prep)
	sg.reloads.Add(1)
	sg.m.reloads.Inc()
	sg.m.version.Set(float64(rep.ToVersion))
	s.metrics.reloadSeconds.Observe(time.Since(start).Seconds())
	return rep, nil
}

func perturbedOf(d *graph.Delta) int {
	if d == nil {
		return 0
	}
	return len(d.Perturbed)
}
