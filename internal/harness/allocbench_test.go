package harness

import (
	"path/filepath"
	"testing"
)

// TestMeasureAllocBaselineZeroPerIteration runs the real measurement at test
// scale and pins the headline property the committed BENCH_pagerank.json
// records: zero steady-state allocations per iteration for every engine.
func TestMeasureAllocBaselineZeroPerIteration(t *testing.T) {
	cfg := testConfig()
	b, err := cfg.MeasureAllocBaseline("journal")
	if err != nil {
		t.Fatal(err)
	}
	if b.SchemaVersion != AllocBaselineVersion || b.Suite != "pagerank" {
		t.Errorf("header = v%d %q, want v%d pagerank", b.SchemaVersion, b.Suite, AllocBaselineVersion)
	}
	if len(b.Engines) != len(AllEngines()) {
		t.Fatalf("measured %d engines, want %d", len(b.Engines), len(AllEngines()))
	}
	for name, m := range b.Engines {
		if m.AllocsPerIter != 0 || m.BytesPerIter != 0 {
			t.Errorf("%s: %d allocs (%d B) per steady-state iteration, want 0", name, m.AllocsPerIter, m.BytesPerIter)
		}
		if m.ExecAllocs <= 0 {
			t.Errorf("%s: per-Exec allocs = %d, expected a positive fixed cost", name, m.ExecAllocs)
		}
	}
	// The frontier-aware engine carries an effectiveness profile; the dense
	// five must not.
	for _, name := range []string{"Delta-PR"} {
		if m := b.Engines[name]; m.IterationsExecuted <= 0 || m.ActiveFraction <= 0 {
			t.Errorf("%s: frontier profile missing: %+v", name, m)
		}
	}
	for _, e := range Engines() {
		if m := b.Engines[e.Name()]; m.IterationsExecuted != 0 || m.ActiveFraction != 0 || m.PartitionsSkipped != 0 {
			t.Errorf("%s: dense engine has a frontier profile: %+v", e.Name(), m)
		}
	}

	// The dynamic-replay profile must be present with warm beating cold in
	// every batch — the incremental re-rank claim the baseline pins.
	if len(b.Dynamic) != dynamicBatches {
		t.Fatalf("dynamic profile has %d batches, want %d", len(b.Dynamic), dynamicBatches)
	}
	for i, batch := range b.Dynamic {
		if batch.WarmIterations >= batch.ColdIterations {
			t.Errorf("dynamic batch %d: warm %d vs cold %d iterations — warm start did not pay off", i+1, batch.WarmIterations, batch.ColdIterations)
		}
		if batch.PerturbedFraction <= 0 {
			t.Errorf("dynamic batch %d: perturbed fraction %g, want > 0", i+1, batch.PerturbedFraction)
		}
	}

	// The batched-PPR profile: one point per width, monotone amortization
	// down to B=16, and an allocation-free batched hot loop.
	if len(b.Batch) != len(BatchWidths) {
		t.Fatalf("batch profile has %d widths, want %d", len(b.Batch), len(BatchWidths))
	}
	for i, p := range b.Batch {
		if p.B != BatchWidths[i] || p.BytesPerQuery <= 0 {
			t.Errorf("batch point %d = %+v, want width %d with positive traffic", i, p, BatchWidths[i])
		}
	}
	if b.BatchAllocsPerIter != 0 || b.BatchBytesPerIter != 0 {
		t.Errorf("batched path: %d allocs (%d B) per steady-state iteration, want 0", b.BatchAllocsPerIter, b.BatchBytesPerIter)
	}

	// Round-trip through the on-disk format.
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := b.WriteJSONFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadAllocBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if regressions := loaded.Compare(b); len(regressions) != 0 {
		t.Errorf("self-comparison reported regressions: %v", regressions)
	}
}

func TestAllocBaselineCompareGates(t *testing.T) {
	base := &AllocBaseline{
		SchemaVersion: AllocBaselineVersion, Suite: "pagerank", Dataset: "journal",
		Divisor: 1024, IterShort: 4, IterLong: 12,
		Engines: map[string]AllocMeasurement{
			"HiPa":     {AllocsPerIter: 0, BytesPerIter: 0, ExecAllocs: 30, ExecBytes: 30000},
			"Delta-PR": {ExecAllocs: 30, ExecBytes: 30000, IterationsExecuted: 12, ActiveFraction: 0.8, PartitionsSkipped: 40},
		},
		Dynamic: []DynamicBatch{{WarmIterations: 4, ColdIterations: 10, PerturbedFraction: 0.004}},
		Batch: []BatchPoint{
			{B: 1, BytesPerQuery: 48_000_000},
			{B: 4, BytesPerQuery: 16_000_000},
			{B: 16, BytesPerQuery: 7_400_000},
			{B: 64, BytesPerQuery: 7_600_000},
		},
	}
	clone := func(mutate func(*AllocBaseline)) *AllocBaseline {
		c := *base
		c.Engines = map[string]AllocMeasurement{}
		for k, v := range base.Engines {
			c.Engines[k] = v
		}
		c.Dynamic = append([]DynamicBatch(nil), base.Dynamic...)
		c.Batch = append([]BatchPoint(nil), base.Batch...)
		mutate(&c)
		return &c
	}
	cases := []struct {
		name    string
		mutate  func(*AllocBaseline)
		flagged bool
	}{
		{"identical", func(*AllocBaseline) {}, false},
		{"one alloc per iteration", func(b *AllocBaseline) {
			b.Engines["HiPa"] = AllocMeasurement{AllocsPerIter: 1, BytesPerIter: 64, ExecAllocs: 30, ExecBytes: 30000}
		}, true},
		{"per-Exec drift within slack", func(b *AllocBaseline) {
			b.Engines["HiPa"] = AllocMeasurement{ExecAllocs: 35, ExecBytes: 33000}
		}, false},
		{"per-Exec blowup", func(b *AllocBaseline) {
			b.Engines["HiPa"] = AllocMeasurement{ExecAllocs: 500, ExecBytes: 30000}
		}, true},
		{"engine missing", func(b *AllocBaseline) { delete(b.Engines, "HiPa") }, true},
		{"shape mismatch", func(b *AllocBaseline) { b.Divisor = 256 }, true},
		{"frontier drift within slack", func(b *AllocBaseline) {
			b.Engines["Delta-PR"] = AllocMeasurement{ExecAllocs: 30, ExecBytes: 30000, IterationsExecuted: 13, ActiveFraction: 0.85, PartitionsSkipped: 25}
		}, false},
		{"iteration-count blowup", func(b *AllocBaseline) {
			b.Engines["Delta-PR"] = AllocMeasurement{ExecAllocs: 30, ExecBytes: 30000, IterationsExecuted: 20, ActiveFraction: 0.8, PartitionsSkipped: 40}
		}, true},
		{"active-fraction drift", func(b *AllocBaseline) {
			b.Engines["Delta-PR"] = AllocMeasurement{ExecAllocs: 30, ExecBytes: 30000, IterationsExecuted: 12, ActiveFraction: 0.95, PartitionsSkipped: 40}
		}, true},
		{"pruning stopped engaging", func(b *AllocBaseline) {
			b.Engines["Delta-PR"] = AllocMeasurement{ExecAllocs: 30, ExecBytes: 30000, IterationsExecuted: 12, ActiveFraction: 0.8, PartitionsSkipped: 0}
		}, true},
		{"dynamic drift within slack", func(b *AllocBaseline) {
			b.Dynamic[0] = DynamicBatch{WarmIterations: 5, ColdIterations: 11, PerturbedFraction: 0.05}
		}, false},
		{"dynamic warm stopped paying off", func(b *AllocBaseline) {
			b.Dynamic[0] = DynamicBatch{WarmIterations: 10, ColdIterations: 10, PerturbedFraction: 0.004}
		}, true},
		{"dynamic warm-iteration blowup", func(b *AllocBaseline) {
			b.Dynamic[0] = DynamicBatch{WarmIterations: 8, ColdIterations: 10, PerturbedFraction: 0.004}
		}, true},
		{"dynamic perturbed-fraction drift", func(b *AllocBaseline) {
			b.Dynamic[0] = DynamicBatch{WarmIterations: 4, ColdIterations: 10, PerturbedFraction: 0.2}
		}, true},
		{"dynamic batch-count mismatch", func(b *AllocBaseline) {
			b.Dynamic = append(b.Dynamic, DynamicBatch{WarmIterations: 4, ColdIterations: 10})
		}, true},
		{"batch traffic drift within slack", func(b *AllocBaseline) {
			b.Batch[2] = BatchPoint{B: 16, BytesPerQuery: 8_000_000}
		}, false},
		{"batch traffic blowup", func(b *AllocBaseline) {
			b.Batch[2] = BatchPoint{B: 16, BytesPerQuery: 11_000_000}
		}, true},
		{"batch amortization regression", func(b *AllocBaseline) {
			// Every width drifts within per-point slack, but B=1 slides down
			// and B=16 up until the absolute 4x claim no longer holds.
			b.Batch[0] = BatchPoint{B: 1, BytesPerQuery: 36_100_000}
			b.Batch[2] = BatchPoint{B: 16, BytesPerQuery: 9_200_000}
		}, true},
		{"batch width-count mismatch", func(b *AllocBaseline) {
			b.Batch = b.Batch[:3]
		}, true},
		{"batched path allocates", func(b *AllocBaseline) {
			b.BatchAllocsPerIter = 2
			b.BatchBytesPerIter = 128
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := base.Compare(clone(tc.mutate))
			if (len(got) > 0) != tc.flagged {
				t.Errorf("regressions = %v, want flagged=%v", got, tc.flagged)
			}
		})
	}
}
