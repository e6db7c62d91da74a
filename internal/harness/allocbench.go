package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"

	"hipa/internal/engines/bppr"
	"hipa/internal/platform"
)

// AllocBaselineVersion is the schema_version written into BENCH_*.json
// allocation baselines. Bump it when the measurement protocol or the field
// meanings change; Compare refuses to diff across versions. v2 added the
// frontier-aware engines (EC-HiPa, NB-PR; both since removed) and the per-engine
// frontier-effectiveness fields; v3 added Delta-PR to the engine set and
// the dynamic-replay section (per-batch warm vs cold convergence
// iterations); v4 added B-PPR to the engine set, the batched-PPR traffic
// section (modelled bytes-moved-per-query per batch width, with the 4x
// amortization gate at B=16), and the batched path's own steady-state
// allocation differential.
const AllocBaselineVersion = 4

// Baseline iteration counts of the differential measurement: per-iteration
// cost is (allocs at iterLong - allocs at iterShort) / (iterLong -
// iterShort), so every per-Exec fixed cost cancels.
const (
	allocIterShort = 4
	allocIterLong  = 12
)

// AllocMeasurement is one engine's allocation profile in an AllocBaseline.
type AllocMeasurement struct {
	// AllocsPerIter and BytesPerIter are the steady-state per-superstep heap
	// costs — 0 by design, gated exactly (they are deterministic: the hot
	// loop either allocates or it does not).
	AllocsPerIter int64 `json:"allocs_per_iter"`
	BytesPerIter  int64 `json:"bytes_per_iter"`
	// ExecAllocs and ExecBytes are the fixed per-Exec costs (worker pool
	// spawn, kernel construction, the one rank copy-out) at the short
	// iteration count, gated with slack — small runtime/Go-version drift here
	// is not a hot-path regression.
	ExecAllocs int64 `json:"exec_allocs"`
	ExecBytes  int64 `json:"exec_bytes"`
	// Frontier-effectiveness profile of one Exec at the long iteration
	// count, recorded for the frontier-aware engines only (all zero for the
	// dense five, whose Result.Frontier is nil): how many supersteps
	// actually ran, the executed share of the dense vertex-iteration space,
	// and the partition-iterations pruned away. Gated with slack — the
	// fields pin that pruning keeps engaging, not an exact trajectory.
	IterationsExecuted int     `json:"iterations_executed,omitempty"`
	ActiveFraction     float64 `json:"active_fraction,omitempty"`
	PartitionsSkipped  int64   `json:"partitions_skipped,omitempty"`
}

// DynamicBatch is one mutation batch of the dynamic-replay profile: how
// many iterations the sparse warm path (Delta-PR seeded from the graph
// delta on an Advance-patched artifact) spent converging against a cold
// HiPa re-rank of the same version, and how much of the graph the batch
// perturbed. The replay is deterministic (fixed stream seed), so the
// trajectory is stable enough to gate with slack.
type DynamicBatch struct {
	WarmIterations    int     `json:"warm_iterations"`
	ColdIterations    int     `json:"cold_iterations"`
	PerturbedFraction float64 `json:"perturbed_fraction"`
}

// BatchPoint is one width of the batched-PPR amortization profile: the
// modelled DRAM traffic per query when width-B batches share each
// superstep's structure stream. The query workload is deterministic
// (BatchQueries), so the trajectory is stable enough to gate with slack.
type BatchPoint struct {
	B             int     `json:"b"`
	BytesPerQuery float64 `json:"bytes_per_query"`
}

// AllocBaseline is the committed allocation-trajectory schema
// (BENCH_pagerank.json). Regenerate with:
//
//	go run ./cmd/hipabench -baseline BENCH_pagerank.json -baseline-write \
//	    -divisor <divisor> -datasets <dataset>
type AllocBaseline struct {
	SchemaVersion int    `json:"schema_version"`
	Suite         string `json:"suite"`
	Dataset       string `json:"dataset"`
	Divisor       int    `json:"divisor"`
	IterShort     int    `json:"iter_short"`
	IterLong      int    `json:"iter_long"`
	// Go records the toolchain that produced the numbers — informational
	// only, never compared.
	Go      string                      `json:"go"`
	Engines map[string]AllocMeasurement `json:"engines"`
	// Dynamic is the warm-vs-cold convergence trajectory of the dynamic
	// mutation replay on the same dataset — the incremental re-rank claim
	// (sparse warm starts converge in ≥2× fewer iterations) pinned per batch.
	Dynamic []DynamicBatch `json:"dynamic,omitempty"`
	// Batch is the modelled bytes-moved-per-query sweep of the batched
	// multi-source PPR engine over BatchWidths — the amortization claim
	// (B=16 at least 4× cheaper per query than B=1) pinned per width.
	Batch []BatchPoint `json:"batch,omitempty"`
	// BatchAllocsPerIter/BatchBytesPerIter are the steady-state
	// per-superstep heap costs of the batched (width-16) ExecBatch path —
	// zero by design, gated exactly like the per-engine figures.
	BatchAllocsPerIter int64 `json:"batch_allocs_per_iter"`
	BatchBytesPerIter  int64 `json:"batch_bytes_per_iter"`
}

// median returns the middle value of xs (xs is sorted in place).
func median(xs []int64) int64 {
	slices.Sort(xs)
	return xs[len(xs)/2]
}

// measureAllocs mirrors testing.AllocsPerRun (warm-up call, GOMAXPROCS(1),
// averaged malloc-counter deltas) but reports bytes alongside counts.
func measureAllocs(runs int, f func()) (allocs, bytes int64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm: pools, free lists, lazily-built state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	r := uint64(runs)
	return int64((after.Mallocs - before.Mallocs) / r), int64((after.TotalAlloc - before.TotalAlloc) / r)
}

// MeasureAllocBaseline profiles the steady-state Exec allocation behaviour
// of every engine on the named dataset and returns the baseline document.
// Measurements always run on the native platform: the modelled scheduler
// simulation allocates per simulated region by design, while the shared
// kernel path underneath is what the baseline pins.
func (c *Config) MeasureAllocBaseline(dataset string) (*AllocBaseline, error) {
	g, err := c.Graph(dataset)
	if err != nil {
		return nil, err
	}
	m, err := c.DefaultMachine()
	if err != nil {
		return nil, err
	}
	b := &AllocBaseline{
		SchemaVersion: AllocBaselineVersion,
		Suite:         "pagerank",
		Dataset:       dataset,
		Divisor:       c.Divisor,
		IterShort:     allocIterShort,
		IterLong:      allocIterLong,
		Go:            runtime.Version(),
		Engines:       map[string]AllocMeasurement{},
	}
	for _, e := range AllEngines() {
		o := c.PaperOptions(e.Name(), m)
		o.Platform = platform.NewNative(m)
		prep, err := e.Prepare(g, o)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name(), err)
		}
		exec := func(iters int) func() {
			oo := o
			oo.Iterations = iters
			return func() {
				if _, err := e.Exec(prep, oo); err != nil {
					panic(fmt.Sprintf("%s: Exec: %v", e.Name(), err))
				}
			}
		}
		// The differential is repeated and the median taken: the hot loop's
		// allocations are deterministic, but TotalAlloc also sees the
		// runtime's own background allocations (timers, GC bookkeeping),
		// which can tip a 0-bytes/iteration engine to ±1 in a single trial.
		const runs = 10
		const trials = 3
		span := int64(allocIterLong - allocIterShort)
		perIterAllocs := make([]int64, trials)
		perIterBytes := make([]int64, trials)
		var shortAllocs, shortBytes int64
		for trial := 0; trial < trials; trial++ {
			sa, sb := measureAllocs(runs, exec(allocIterShort))
			la, lb := measureAllocs(runs, exec(allocIterLong))
			perIterAllocs[trial] = (la - sa) / span
			perIterBytes[trial] = (lb - sb) / span
			if trial == 0 {
				shortAllocs, shortBytes = sa, sb
			}
		}
		meas := AllocMeasurement{
			AllocsPerIter: median(perIterAllocs),
			BytesPerIter:  median(perIterBytes),
			ExecAllocs:    shortAllocs,
			ExecBytes:     shortBytes,
		}
		// Frontier-effectiveness profile: one more Exec at the long count,
		// this time inspecting the result instead of the allocator.
		oo := o
		oo.Iterations = allocIterLong
		res, err := e.Exec(prep, oo)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name(), err)
		}
		if rep := res.Frontier; rep != nil {
			meas.IterationsExecuted = rep.IterationsExecuted
			meas.ActiveFraction = rep.ActiveFraction()
			meas.PartitionsSkipped = rep.PartitionsSkipped
		}
		b.Engines[e.Name()] = meas
	}
	// Dynamic-replay profile: the warm-vs-cold iteration trajectory of the
	// incremental re-rank experiment on the same dataset.
	rows, _, err := Dynamic(c, dataset)
	if err != nil {
		return nil, fmt.Errorf("dynamic replay: %w", err)
	}
	for _, r := range rows {
		b.Dynamic = append(b.Dynamic, DynamicBatch{
			WarmIterations:    r.DeltaIterations,
			ColdIterations:    r.ColdIterations,
			PerturbedFraction: r.PerturbedFraction,
		})
	}
	// Batched-PPR traffic profile: the modelled bytes-moved-per-query sweep
	// on the same dataset (zero traffic when the config is native-only).
	batchRows, _, err := Batch(c, dataset)
	if err != nil {
		return nil, fmt.Errorf("batch sweep: %w", err)
	}
	for _, r := range batchRows {
		b.Batch = append(b.Batch, BatchPoint{B: r.B, BytesPerQuery: r.BytesPerQuery})
	}
	// Batched-path allocation differential: a width-16 ExecBatch measured
	// exactly like the scalar engines. The retirement tolerance is pushed
	// out of reach so the short and long runs execute exactly the requested
	// superstep counts and the differential spans a known distance.
	bo := c.PaperOptions(bppr.Name, m)
	bo.Platform = platform.NewNative(m)
	bo.Tolerance = 1e-30
	bprep, err := (bppr.Engine{}).Prepare(g, bo)
	if err != nil {
		return nil, fmt.Errorf("batched prepare: %w", err)
	}
	bq := BatchQueries(g, 16)
	bexec := func(iters int) func() {
		oo := bo
		oo.Iterations = iters
		return func() {
			if _, err := bppr.ExecBatch(bprep, oo, bq); err != nil {
				panic(fmt.Sprintf("batched Exec: %v", err))
			}
		}
	}
	{
		const runs = 10
		const trials = 3
		span := int64(allocIterLong - allocIterShort)
		perIterAllocs := make([]int64, trials)
		perIterBytes := make([]int64, trials)
		for trial := 0; trial < trials; trial++ {
			sa, sb := measureAllocs(runs, bexec(allocIterShort))
			la, lb := measureAllocs(runs, bexec(allocIterLong))
			perIterAllocs[trial] = (la - sa) / span
			perIterBytes[trial] = (lb - sb) / span
		}
		b.BatchAllocsPerIter = median(perIterAllocs)
		b.BatchBytesPerIter = median(perIterBytes)
	}
	return b, nil
}

// Compare diffs a measured baseline against the committed one and returns
// one human-readable regression per violated gate (empty slice = pass).
// Per-iteration allocs and bytes are gated exactly; per-Exec fixed costs
// get 25% + 64-alloc/16KB headroom for runtime and toolchain drift.
func (b *AllocBaseline) Compare(measured *AllocBaseline) []string {
	var regressions []string
	fail := func(format string, args ...any) {
		regressions = append(regressions, fmt.Sprintf(format, args...))
	}
	if b.SchemaVersion != measured.SchemaVersion {
		fail("schema version mismatch: baseline v%d, measured v%d", b.SchemaVersion, measured.SchemaVersion)
		return regressions
	}
	if b.Dataset != measured.Dataset || b.Divisor != measured.Divisor ||
		b.IterShort != measured.IterShort || b.IterLong != measured.IterLong {
		fail("measurement shape mismatch: baseline (%s, divisor %d, iters %d/%d) vs measured (%s, divisor %d, iters %d/%d)",
			b.Dataset, b.Divisor, b.IterShort, b.IterLong,
			measured.Dataset, measured.Divisor, measured.IterShort, measured.IterLong)
		return regressions
	}
	for name, want := range b.Engines {
		got, ok := measured.Engines[name]
		if !ok {
			fail("%s: missing from measurement", name)
			continue
		}
		if got.AllocsPerIter != want.AllocsPerIter {
			fail("%s: allocs/iteration %d, baseline %d (exact gate)", name, got.AllocsPerIter, want.AllocsPerIter)
		}
		if got.BytesPerIter != want.BytesPerIter {
			fail("%s: bytes/iteration %d, baseline %d (exact gate)", name, got.BytesPerIter, want.BytesPerIter)
		}
		if limit := want.ExecAllocs + want.ExecAllocs/4 + 64; got.ExecAllocs > limit {
			fail("%s: per-Exec allocs %d exceed baseline %d (limit %d)", name, got.ExecAllocs, want.ExecAllocs, limit)
		}
		if limit := want.ExecBytes + want.ExecBytes/4 + 16<<10; got.ExecBytes > limit {
			fail("%s: per-Exec bytes %d exceed baseline %d (limit %d)", name, got.ExecBytes, want.ExecBytes, limit)
		}
		// Frontier-effectiveness gates (frontier-aware engines only): the
		// iteration count may drift ±25% and the active fraction ±0.1, but
		// an engine whose baseline pruned must still prune.
		if want.IterationsExecuted > 0 {
			lo, hi := want.IterationsExecuted*3/4, want.IterationsExecuted*5/4+1
			if got.IterationsExecuted < lo || got.IterationsExecuted > hi {
				fail("%s: iterations executed %d outside baseline %d ±25%%", name, got.IterationsExecuted, want.IterationsExecuted)
			}
			if d := got.ActiveFraction - want.ActiveFraction; d < -0.1 || d > 0.1 {
				fail("%s: active fraction %.3f drifted from baseline %.3f by more than 0.1", name, got.ActiveFraction, want.ActiveFraction)
			}
			if want.PartitionsSkipped > 0 && got.PartitionsSkipped == 0 {
				fail("%s: baseline skipped %d partition-iterations, measurement skipped none — pruning stopped engaging", name, want.PartitionsSkipped)
			}
		}
	}
	// Dynamic-replay gates: warm must beat cold strictly in every batch, and
	// the trajectory may drift only within slack (±25%+1 iterations, ±0.1
	// perturbed fraction) of the committed baseline.
	if len(b.Dynamic) != len(measured.Dynamic) {
		fail("dynamic replay: baseline has %d batches, measurement has %d", len(b.Dynamic), len(measured.Dynamic))
	} else {
		for i, want := range b.Dynamic {
			got := measured.Dynamic[i]
			if got.WarmIterations >= got.ColdIterations {
				fail("dynamic batch %d: warm path spent %d iterations, cold %d — warm starts stopped paying off", i+1, got.WarmIterations, got.ColdIterations)
			}
			if lo, hi := want.WarmIterations*3/4-1, want.WarmIterations*5/4+1; got.WarmIterations < lo || got.WarmIterations > hi {
				fail("dynamic batch %d: warm iterations %d outside baseline %d ±25%%+1", i+1, got.WarmIterations, want.WarmIterations)
			}
			if lo, hi := want.ColdIterations*3/4-1, want.ColdIterations*5/4+1; got.ColdIterations < lo || got.ColdIterations > hi {
				fail("dynamic batch %d: cold iterations %d outside baseline %d ±25%%+1", i+1, got.ColdIterations, want.ColdIterations)
			}
			if d := got.PerturbedFraction - want.PerturbedFraction; d < -0.1 || d > 0.1 {
				fail("dynamic batch %d: perturbed fraction %.3f drifted from baseline %.3f by more than 0.1", i+1, got.PerturbedFraction, want.PerturbedFraction)
			}
		}
	}
	// Batched-PPR gates: the hot loop of the batched path stays
	// allocation-free (exact, like the per-engine figures), the per-width
	// traffic drifts at most ±25% from the committed trajectory, and the
	// amortization claim holds absolutely — bytes-moved-per-query at B=16 at
	// least 4× lower than at B=1.
	if measured.BatchAllocsPerIter != b.BatchAllocsPerIter {
		fail("batched path: allocs/iteration %d, baseline %d (exact gate)", measured.BatchAllocsPerIter, b.BatchAllocsPerIter)
	}
	if measured.BatchBytesPerIter != b.BatchBytesPerIter {
		fail("batched path: bytes/iteration %d, baseline %d (exact gate)", measured.BatchBytesPerIter, b.BatchBytesPerIter)
	}
	if len(b.Batch) != len(measured.Batch) {
		fail("batch sweep: baseline has %d widths, measurement has %d", len(b.Batch), len(measured.Batch))
	} else {
		var q1, q16 float64
		for i, want := range b.Batch {
			got := measured.Batch[i]
			if got.B != want.B {
				fail("batch sweep point %d: width %d, baseline %d", i, got.B, want.B)
				continue
			}
			if got.BytesPerQuery < want.BytesPerQuery*0.75 || got.BytesPerQuery > want.BytesPerQuery*1.25 {
				fail("batch B=%d: %.0f bytes/query outside baseline %.0f ±25%%", got.B, got.BytesPerQuery, want.BytesPerQuery)
			}
			switch got.B {
			case 1:
				q1 = got.BytesPerQuery
			case 16:
				q16 = got.BytesPerQuery
			}
		}
		if q1 > 0 && 4*q16 > q1 {
			fail("batch amortization: %.0f bytes/query at B=16 vs %.0f at B=1 (%.2fx, want at least 4x)", q16, q1, q1/q16)
		}
	}
	return regressions
}

// WriteJSONFile writes the baseline document, indented, trailing newline.
func (b *AllocBaseline) WriteJSONFile(path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadAllocBaseline loads a committed baseline document.
func ReadAllocBaseline(path string) (*AllocBaseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b AllocBaseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if b.SchemaVersion != AllocBaselineVersion {
		return nil, fmt.Errorf("%s: schema_version %d, this build understands %d", path, b.SchemaVersion, AllocBaselineVersion)
	}
	return &b, nil
}
