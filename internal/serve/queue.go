package serve

import (
	"fmt"
	"time"

	"hipa/internal/engines/bppr"
	"hipa/internal/engines/common"
	"hipa/internal/graph"
)

// The /v1/ppr endpoint batches personalized-PageRank queries: requests
// enqueue on a bounded per-graph channel, a per-graph collector goroutine
// (started on first use) coalesces them into one bppr.ExecBatch, and the
// batch flushes when it reaches Config.BatchMaxSize, when the flush deadline
// (Config.BatchFlushMs after the batch opened) expires, or when a request
// arrives for a different snapshot than the open batch's. Every request pins
// the snapshot current at its arrival, so a reload mid-batch never mixes
// graph versions inside one Exec: the open batch keeps its snapshot and the
// newcomer opens the next one. A full queue rejects immediately (HTTP 503)
// instead of blocking the handler — backpressure the load balancer can see.

// Batching defaults for Config zero fields.
const (
	// DefaultBatchMaxSize flushes a batch at this width — the B=16 point the
	// bench gate pins as >=4x cheaper per query than B=1.
	DefaultBatchMaxSize = 16
	// DefaultBatchFlushMs bounds how long the first request of a batch waits
	// for batch-mates.
	DefaultBatchFlushMs = 2
	// DefaultBatchQueueDepth bounds queued-but-uncollected requests per
	// graph; beyond it the endpoint sheds load with 503s.
	DefaultBatchQueueDepth = 256
)

// pprReq is one enqueued personalized-PageRank query. The snapshot is pinned
// at arrival; resp is buffered so the executing goroutine never blocks on a
// caller that gave up.
type pprReq struct {
	seeds []graph.VertexID
	k     int
	snap  *snapshot
	resp  chan pprResp
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

// pprCollector is g's batching loop: it owns the open batch and its flush
// timer, and dispatches each flush to its own goroutine (bounded by the
// process Exec semaphore) so collection never stalls behind an Exec.
func (s *Service) pprCollector(sg *servingGraph) {
	delay := time.Duration(s.cfg.BatchFlushMs) * time.Millisecond
	var (
		batch []*pprReq
		snap  *snapshot
		timer *time.Timer
		timeC <-chan time.Time
	)
	flush := func() {
		if timer != nil {
			timer.Stop()
			timer, timeC = nil, nil
		}
		if len(batch) == 0 {
			return
		}
		b, sn := batch, snap
		batch, snap = nil, nil
		go s.execPPRBatch(sg, sn, b)
	}
	for {
		select {
		case <-s.done:
			for _, r := range batch {
				r.resp <- pprResp{err: fmt.Errorf("service closed")}
			}
			return
		case req := <-sg.pprCh:
			sg.m.pprQueueDepth.Set(float64(len(sg.pprCh)))
			if len(batch) > 0 && req.snap != snap {
				// A reload swapped the snapshot mid-batch: the open batch
				// keeps the version its requests pinned, the newcomer opens
				// the next batch on the new one.
				flush()
			}
			if len(batch) == 0 {
				snap = req.snap
				timer = time.NewTimer(delay)
				timeC = timer.C
			}
			batch = append(batch, req)
			if len(batch) >= s.cfg.BatchMaxSize {
				flush()
			}
		case <-timeC:
			timer, timeC = nil, nil
			flush()
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
	br, err := bppr.ExecBatch(prep, sg.opts, queries)
	if err != nil {
		fail(err)
		return
	}
	sg.m.pprExecs.Inc()
	for i, r := range batch {
		r.resp <- pprResp{ranks: br.Ranks[i], iterations: br.Iterations[i], batch: len(batch)}
	}
	s.metrics.pprFlushSeconds.Observe(time.Since(start).Seconds())
}

// bpprPrep returns the snapshot's B-PPR artifact, built at most once per
// snapshot on first demand. It shares the scalar artifact's prep-cache and
// build pipeline; only the engine stamp differs.
func (snap *snapshot) bpprPrep(opts common.Options) (*common.Prepared, error) {
	snap.pprOnce.Do(func() {
		snap.pprPrep, snap.pprErr = bppr.Engine{}.Prepare(snap.g, opts)
	})
	return snap.pprPrep, snap.pprErr
}
