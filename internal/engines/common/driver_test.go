package common

import (
	"runtime"
	"sync/atomic"
	"testing"

	"hipa/internal/obs"
)

// TestGoParallelismDefaultsToGOMAXPROCS: the documented default —
// min(Threads, GOMAXPROCS) — must hold regardless of how the process is
// capped (regression: the FCFS path used to ignore the option entirely, so
// nothing pinned the resolved value).
func TestGoParallelismDefaultsToGOMAXPROCS(t *testing.T) {
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	o := Options{}.WithDefaults(40)
	if o.GoParallelism != 2 {
		t.Fatalf("GoParallelism = %d, want 2 (GOMAXPROCS) for 40 simulated threads", o.GoParallelism)
	}
	o = Options{Threads: 1}.WithDefaults(40)
	if o.GoParallelism != 1 {
		t.Fatalf("GoParallelism = %d, want 1 (Threads < GOMAXPROCS)", o.GoParallelism)
	}
	o = Options{GoParallelism: 7}.WithDefaults(40)
	if o.GoParallelism != 7 {
		t.Fatalf("explicit GoParallelism rewritten to %d, want 7", o.GoParallelism)
	}
}

// TestRunSuperstepsHonorsParallelism: the driver must thread the cap into
// every parallel phase — this is the fix for GoParallelism being silently
// dropped on the FCFS path.
func TestRunSuperstepsHonorsParallelism(t *testing.T) {
	const threads, par = 16, 2
	var cur, hi atomic.Int64
	probe := func(int) {
		c := cur.Add(1)
		for {
			p := hi.Load()
			if c <= p || hi.CompareAndSwap(p, c) {
				break
			}
		}
		runtime.Gosched()
		cur.Add(-1)
	}
	performed := RunSupersteps(SuperstepConfig{
		Threads:     threads,
		Parallelism: par,
		Iterations:  3,
	}, PhaseKernels{Scatter: probe, Reduce: func() {}, Gather: probe})
	if performed != 3 {
		t.Fatalf("performed = %d, want 3", performed)
	}
	if hi.Load() > par {
		t.Errorf("observed %d concurrent kernel bodies, cap is %d", hi.Load(), par)
	}
}

// fakeFrontier is a scripted Frontier: every Rebuild retires one of its
// partitions, each partition standing for ten vertices, until none is left
// (or never, when keep is set). rebuilds records the iteration each Rebuild
// was called for.
type fakeFrontier struct {
	total, active int
	keep          bool
	rebuilds      []int
}

func (f *fakeFrontier) Stats() FrontierStats {
	return FrontierStats{
		ActivePartitions: f.active,
		TotalPartitions:  f.total,
		ActiveVertices:   int64(10 * f.active),
		TotalVertices:    int64(10 * f.total),
	}
}

func (f *fakeFrontier) Rebuild(it int) (FrontierStats, bool) {
	if !f.keep {
		f.rebuilds = append(f.rebuilds, it)
		f.active--
	}
	return f.Stats(), f.active == 0
}

// noopKernels are phase kernels that do no work and never converge, so only
// the frontier can end the loop.
func noopKernels() PhaseKernels {
	return PhaseKernels{
		Scatter:      func(int) {},
		Reduce:       func() {},
		Gather:       func(int) {},
		Residual:     func() float64 { return 1 },
		DanglingMass: func() float64 { return 0 },
	}
}

// TestFrontierRetiresAndTerminates pins the driver's side of the Frontier
// contract: Rebuild runs once after every iteration, in order; the loop
// stops at the iteration whose Rebuild reports done, well inside the
// budget; and each iteration's IterationStats carries the active set the
// frontier reported for that iteration.
func TestFrontierRetiresAndTerminates(t *testing.T) {
	const parts, budget = 5, 100
	f := &fakeFrontier{total: parts, active: parts}
	rec := &obs.Recorder{}
	performed := RunSupersteps(SuperstepConfig{
		Threads:    3,
		Iterations: budget,
		Frontier:   f,
		Rec:        rec,
	}, noopKernels())
	if performed != parts {
		t.Fatalf("performed %d iterations, want %d: the loop must stop when Rebuild reports done", performed, parts)
	}
	for i, it := range f.rebuilds {
		if it != i {
			t.Fatalf("Rebuild calls for iterations %v, want 0..%d in order", f.rebuilds, parts-1)
		}
	}
	if len(f.rebuilds) != parts {
		t.Fatalf("Rebuild ran %d times, want once per iteration (%d)", len(f.rebuilds), parts)
	}
	stats := rec.IterationStats()
	if len(stats) != parts {
		t.Fatalf("recorded %d iteration stats, want %d", len(stats), parts)
	}
	for i, st := range stats {
		if want := parts - i; st.ActivePartitions != want || st.ActiveVertices != int64(10*want) {
			t.Errorf("iteration %d stats carry %d partitions / %d vertices, want %d / %d",
				i, st.ActivePartitions, st.ActiveVertices, want, 10*want)
		}
	}
}

// TestFrontierLoopIsAllocationFree extends the driver's zero-allocation
// guarantee to the frontier path: the Stats and Rebuild calls and the
// bookkeeping around them allocate nothing per iteration.
func TestFrontierLoopIsAllocationFree(t *testing.T) {
	f := &fakeFrontier{total: 4, active: 4, keep: true}
	loop := NewSuperstepLoop(SuperstepConfig{Threads: 4, Iterations: 1, Frontier: f}, noopKernels())
	defer loop.Close()
	loop.Run(1)
	if allocs := testing.AllocsPerRun(10, func() { loop.Run(1) }); allocs != 0 {
		t.Errorf("frontier loop.Run(1) allocated %g times; frontier maintenance must be allocation-free", allocs)
	}
}
