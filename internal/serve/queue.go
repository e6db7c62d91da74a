package serve

import (
	"context"
	"fmt"
	"time"

	"hipa/internal/engines/bppr"
	"hipa/internal/engines/common"
	"hipa/internal/engines/hipa"
	"hipa/internal/graph"
)

// The /v1/ppr endpoint batches personalized-PageRank queries: requests
// enqueue on a bounded per-graph channel, and a per-graph collector goroutine
// (started on first use) coalesces them into one bppr.ExecBatch. While no
// batch of the graph is in flight, the open batch flushes at once, after
// taking in every request already queued, so a lone request never waits for
// batch-mates that are not coming. While a batch is in flight, arrivals
// accumulate: they flush when the in-flight batch finishes, when they reach
// Config.BatchMaxSize, when the flush deadline (Config.BatchFlushMs after the
// batch opened) expires, or when a request arrives for a different snapshot
// than the open batch's. Under load, batches thus form during an Exec.
//
// Every request pins the snapshot current at its arrival, so a reload
// mid-batch never mixes graph versions inside one Exec: the open batch keeps
// its snapshot and the newcomer opens the next one. A request whose caller
// went away is dropped before its batch flushes, and a batch left with no
// live request never runs. A full queue rejects immediately (HTTP 503)
// instead of blocking the handler — backpressure the load balancer can see.

// Batching defaults for Config zero fields.
const (
	// DefaultBatchMaxSize flushes a batch at this width — the B=16 point the
	// bench gate pins as >=4x cheaper per query than B=1.
	DefaultBatchMaxSize = 16
	// DefaultBatchFlushMs bounds how long the first request of a batch waits
	// for batch-mates while another batch of its graph is in flight.
	DefaultBatchFlushMs = 2
	// DefaultBatchQueueDepth bounds queued-but-uncollected requests per
	// graph; beyond it the endpoint sheds load with 503s.
	DefaultBatchQueueDepth = 256
)

// pprReq is one enqueued personalized-PageRank query. The snapshot is pinned
// at arrival; ctx is the caller's request context; resp is buffered so the
// executing goroutine never blocks on a caller that gave up.
type pprReq struct {
	ctx     context.Context
	arrived time.Time
	seeds   []graph.VertexID
	k       int
	snap    *snapshot
	resp    chan pprResp
}

// pprResp is one query's outcome: its rank column and per-column iteration
// count, plus the width of the batch that served it.
type pprResp struct {
	ranks      []float32
	iterations int
	batch      int
	err        error
}

// enqueuePPR hands req to g's collector, starting it on first use. It
// reports false when the queue is full (the caller replies 503).
func (s *Service) enqueuePPR(sg *servingGraph, req *pprReq) bool {
	sg.pprOnce.Do(func() { go s.pprCollector(sg) })
	select {
	case sg.pprCh <- req:
		sg.m.pprQueueDepth.Set(float64(len(sg.pprCh)))
		return true
	default:
		sg.m.pprRejected.Inc()
		return false
	}
}

// pprCollector is g's batching loop: it owns the open batch, its flush timer
// and the count of g's batches in flight, and dispatches each flush to its
// own goroutine (bounded by the process Exec semaphore) so collection never
// stalls behind an Exec.
func (s *Service) pprCollector(sg *servingGraph) {
	delay := time.Duration(s.cfg.BatchFlushMs) * time.Millisecond
	finished := make(chan struct{})
	var (
		batch    []*pprReq
		snap     *snapshot
		timer    *time.Timer
		timeC    <-chan time.Time
		inflight int
	)
	flush := func() {
		if timer != nil {
			timer.Stop()
			timer, timeC = nil, nil
		}
		now := time.Now()
		live := batch[:0]
		for _, r := range batch {
			if r.ctx.Err() == nil {
				live = append(live, r)
				s.metrics.pprQueueStage.Observe(now.Sub(r.arrived).Seconds())
			}
		}
		sn := snap
		batch, snap = nil, nil
		if len(live) == 0 {
			return
		}
		inflight++
		go func() {
			s.execPPRBatch(sg, sn, live)
			select {
			case finished <- struct{}{}:
			case <-s.done:
			}
		}()
	}
	add := func(req *pprReq) {
		sg.m.pprQueueDepth.Set(float64(len(sg.pprCh)))
		if len(batch) > 0 && req.snap != snap {
			// A reload swapped the snapshot mid-batch: the open batch
			// keeps the version its requests pinned, the newcomer opens
			// the next batch on the new one.
			flush()
		}
		if len(batch) == 0 {
			snap = req.snap
		}
		batch = append(batch, req)
		if len(batch) >= s.cfg.BatchMaxSize {
			flush()
		}
	}
	for {
		select {
		case <-s.done:
			for _, r := range batch {
				r.resp <- pprResp{err: fmt.Errorf("service closed")}
			}
			return
		case req := <-sg.pprCh:
			add(req)
		case <-finished:
			inflight--
		case <-timeC:
			timer, timeC = nil, nil
			flush()
		}
		switch {
		case len(batch) == 0:
		case inflight == 0:
			// The graph is idle: take in what is already queued, then run.
		drain:
			for {
				select {
				case req := <-sg.pprCh:
					add(req)
				default:
					break drain
				}
			}
			flush()
		case timer == nil:
			// The batch opened behind an in-flight one: cap its wait.
			timer = time.NewTimer(delay)
			timeC = timer.C
		}
	}
}

// execPPRBatch runs one flushed batch under the Exec semaphore and fans the
// per-column results back out to the waiting handlers.
func (s *Service) execPPRBatch(sg *servingGraph, snap *snapshot, batch []*pprReq) {
	start := time.Now()
	sg.m.pprBatches.Inc()
	s.metrics.pprBatchSize.Observe(float64(len(batch)))
	fail := func(err error) {
		for _, r := range batch {
			r.resp <- pprResp{err: err}
		}
	}
	prep, err := snap.bpprPrep(sg.opts)
	if err != nil {
		fail(err)
		return
	}
	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	queries := make([]bppr.Query, len(batch))
	for i, r := range batch {
		queries[i] = bppr.Query{Seeds: r.seeds}
	}
	execStart := time.Now()
	br, err := bppr.ExecBatch(prep, sg.opts, queries)
	if err != nil {
		fail(err)
		return
	}
	execSeconds := time.Since(execStart).Seconds()
	sg.m.pprExecs.Inc()
	for i, r := range batch {
		s.metrics.pprExecStage.Observe(execSeconds)
		r.resp <- pprResp{ranks: br.Ranks[i], iterations: br.Iterations[i], batch: len(batch)}
	}
	s.metrics.pprFlushSeconds.Observe(time.Since(start).Seconds())
}

// bpprPrep returns the artifact the snapshot's /v1/ppr batches run on. A
// HiPa-family serving artifact serves them itself — ExecBatch accepts it,
// reloads have already patched it forward, and its arenas are warm. Other
// serving engines get a B-PPR artifact, built at most once per snapshot on
// first demand through the same prep cache, its arena pool capped like the
// serving artifact's.
func (snap *snapshot) bpprPrep(opts common.Options) (*common.Prepared, error) {
	if snap.prep.Family() == hipa.Family {
		return snap.prep, nil
	}
	snap.pprOnce.Do(func() {
		snap.pprPrep, snap.pprErr = bppr.Engine{}.Prepare(snap.g, opts)
		if snap.pprErr == nil {
			snap.pprPrep.SetArenaCap(snap.prep.ArenaCap())
		}
	})
	return snap.pprPrep, snap.pprErr
}
