package obs

import (
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	// Every entry point must be a no-op on nil receivers: this is the
	// "no recorder configured costs nothing" contract engines rely on.
	var r *Recorder
	var tr *Trace
	tr.SetLane(0, "a")
	tr.Span(0, "a", 0, time.Now())
	tr.AddSpanAt(0, "a", 0, 0, 1)
	if tr.NumSpans() != 0 {
		t.Error("nil trace must record nothing")
	}
	r.RecordIteration(IterationStats{})
	r.AnnotateModel(1, 1, 64, 1, true)
	if r.T() != nil || r.IterationStats() != nil {
		t.Error("nil recorder accessors must return nil")
	}
}

func TestRecorderIterations(t *testing.T) {
	r := &Recorder{}
	for i := 0; i < 4; i++ {
		r.RecordIteration(IterationStats{Iter: i, Residual: 1.0 / float64(i+1)})
	}
	its := r.IterationStats()
	if len(its) != 4 {
		t.Fatalf("got %d iterations, want 4", len(its))
	}
	for i, it := range its {
		if it.Iter != i {
			t.Errorf("iteration %d has Iter=%d", i, it.Iter)
		}
	}
}

func TestAnnotateModelPinned(t *testing.T) {
	r := &Recorder{}
	for i := 0; i < 4; i++ {
		r.RecordIteration(IterationStats{Iter: i})
	}
	r.AnnotateModel(4000, 400, 64, 7, true)
	its := r.IterationStats()
	if its[0].SchedMigrations != 7 || its[1].SchedMigrations != 0 {
		t.Errorf("pinned migrations: iter0=%d iter1=%d, want 7/0", its[0].SchedMigrations, its[1].SchedMigrations)
	}
	for _, it := range its {
		if it.LocalBytes != 1000 || it.RemoteBytes != 100 {
			t.Errorf("iter %d traffic = %d/%d, want 1000/100", it.Iter, it.LocalBytes, it.RemoteBytes)
		}
		if it.LocalAccesses != 1000/64 || it.RemoteAccesses != 100/64 {
			t.Errorf("iter %d accesses = %d/%d", it.Iter, it.LocalAccesses, it.RemoteAccesses)
		}
	}
}

func TestAnnotateModelSpread(t *testing.T) {
	r := &Recorder{}
	for i := 0; i < 3; i++ {
		r.RecordIteration(IterationStats{Iter: i})
	}
	r.AnnotateModel(300, 30, 64, 7, false)
	var total int64
	for _, it := range r.IterationStats() {
		total += it.SchedMigrations
	}
	if total != 7 {
		t.Errorf("spread migrations sum = %d, want 7 (no migration lost to rounding)", total)
	}
}
