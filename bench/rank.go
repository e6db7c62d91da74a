package main

import (
	"fmt"
	"runtime"
	"time"

	"hipa"
)

const (
	// iterations and damping are the paper's fixed PageRank methodology
	// (§4: 20 iterations), which every rank Exec and its reference use.
	iterations = 20
	damping    = 0.85
	// minExecs keeps a rank pass meaningful when one Exec outlasts the
	// measured time.
	minExecs = 5
)

// rankOptions are the program's defaults for a real graph on this host:
// HiPa on the native platform with the unscaled machine (which sizes the
// partitions from its cache geometry), at the fixed iteration count.
func rankOptions() hipa.Options {
	return hipa.Options{Platform: hipa.NewNativePlatform(nil), Iterations: iterations}
}

// rankWorkload ranks one graph: cold set-ups from the in-memory edge list,
// then warm Execs against the last set-up's artifact.
type rankWorkload struct {
	cfg    config
	n      int
	m      int64
	setups int
	edges  []hipa.Edge
	ref    []float64
	info   []inputInfo
	last   *hipa.Graph // the latest set-up's graph
}

func newRankWorkload(cfg config, src edgeSource, setups int) (workload, error) {
	w := &rankWorkload{cfg: cfg, n: src.vertices(), setups: setups}
	w.edges = src.edges(cfg.seed, cfg.procs)
	w.m = int64(len(w.edges))
	g := build(w.n, w.edges)
	w.info = []inputInfo{graphInfo("graph", g)}
	w.ref = hipa.ReferencePageRank(g, iterations, damping)
	return w, nil
}

func (w *rankWorkload) inputs() []inputInfo     { return w.info }
func (w *rankWorkload) size() (int, int64)      { return w.n, w.m }
func (w *rankWorkload) probeGraph() *hipa.Graph { return w.last }
func (w *rankWorkload) close()                  {}

func (w *rankWorkload) pass(tr *tracer) (*passResult, error) {
	p := newPassResult()
	root, start := tr.id(), time.Now()
	opts := rankOptions()

	var setups []float64
	var prep *hipa.Prepared
	for i := 0; i < w.setups; i++ {
		prep, w.last = nil, nil // the previous set-up is garbage before the next one
		runtime.GC()
		sid := tr.id()
		t0 := time.Now()
		g := build(w.n, w.edges)
		t1 := time.Now()
		tr.add("build", tr.id(), sid, 0, 0, t0, t1)
		if tr != nil {
			// Traced set-ups time the in-edge build and the fingerprint on
			// their own; untraced ones skip the first and leave the second
			// to Prepare.
			g.BuildInWorkers(0)
			t2 := time.Now()
			tr.add("build_in", tr.id(), sid, 0, 0, t1, t2)
			g.FingerprintWorkers(0)
			t1 = time.Now()
			tr.add("fingerprint", tr.id(), sid, 0, 0, t2, t1)
		}
		var err error
		if prep, err = hipa.HiPa.Prepare(g, opts); err != nil {
			return nil, fmt.Errorf("prepare: %w", err)
		}
		t3 := time.Now()
		tr.add("prepare", tr.id(), sid, 0, 0, t1, t3)
		tr.add("setup", sid, root, 0, 0, t0, t3)
		setups = append(setups, t3.Sub(t0).Seconds())
		w.last = g
	}

	runtime.GC()
	mid, mStart := tr.id(), time.Now()
	// exec times one Exec and checks its ranks outside the timed region.
	exec := func() (seconds float64, correct bool, err error) {
		eid := tr.id()
		t0 := time.Now()
		res, err := hipa.HiPa.Exec(prep, opts)
		t1 := time.Now()
		tr.add("exec", eid, mid, 0, 0, t0, t1)
		if err != nil {
			return 0, false, fmt.Errorf("exec: %w", err)
		}
		seconds = t1.Sub(t0).Seconds()
		p.execs++
		p.execSum += seconds
		return seconds, p.ops.record(checkRanks(res.Ranks, w.ref)), nil
	}
	// Untimed warm-up Execs fill the artifact's arena pool and the caches,
	// as every later Exec finds them.
	warmEnd := time.Now().Add(warmup(w.cfg.measure))
	for first := true; first || time.Now().Before(warmEnd); first = false {
		if _, _, err := exec(); err != nil {
			return nil, err
		}
	}
	var times []float64
	deadline := time.Now().Add(w.cfg.measure)
	for n := 0; n < minExecs || time.Now().Before(deadline); n++ {
		dt, ok, err := exec()
		if err != nil {
			return nil, err
		}
		if ok {
			times = append(times, dt)
		}
	}
	end := time.Now()
	tr.add("measure", mid, root, 0, 0, mStart, end)
	tr.add("workload", root, 0, 0, 0, start, end)

	var sum float64
	for _, t := range times {
		sum += t
	}
	p.e2e["setup_s"] = summarize(setups, 1, "s", medianOf)
	p.e2e["qps"] = single(ratio(float64(len(times)), sum), "1/s")
	p.e2e["exec_s"] = summarize(times, 1, "s", medianOf)
	addLatencies(p.e2e, times)
	if tr != nil {
		for _, name := range []string{"build", "build_in", "fingerprint"} {
			p.layers["graph."+name+"_s"] = summarize(tr.durations(name), 1, "s", medianOf)
		}
	}
	return p, nil
}
