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
// dropped on the FCFS path. With only a Scatter (a nil Reduce, Gather,
// Residual and DanglingMass, as the traversals pass) each iteration runs
// one phase, one generation of each barrier, and records its statistics.
func TestRunSuperstepsHonorsParallelism(t *testing.T) {
	const threads, par, iters = 16, 2, 3
	for _, tc := range []struct {
		name   string
		gather bool
	}{{"scatter+gather", true}, {"scatter only", false}} {
		t.Run(tc.name, func(t *testing.T) {
			var cur, hi, bodies atomic.Int64
			probe := func(int) {
				bodies.Add(1)
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
			k := PhaseKernels{Scatter: probe}
			phases := 1
			if tc.gather {
				k.Reduce, k.Gather = func() {}, probe
				phases = 2
			}
			rec := &obs.Recorder{}
			l := NewSuperstepLoop(SuperstepConfig{Threads: threads, Parallelism: par, Rec: rec}, k)
			performed := l.Run(iters)
			gens := l.start.gen
			l.Close()
			if performed != iters {
				t.Fatalf("performed = %d, want %d", performed, iters)
			}
			if hi.Load() > par {
				t.Errorf("observed %d concurrent kernel bodies, cap is %d", hi.Load(), par)
			}
			if got, want := bodies.Load(), int64(threads*phases*iters); got != want {
				t.Errorf("ran %d kernel bodies, want %d", got, want)
			}
			if gens != uint64(phases*iters) {
				t.Errorf("%d start-barrier generations over %d iterations, want %d", gens, iters, phases*iters)
			}
			if got := len(rec.IterationStats()); got != iters {
				t.Errorf("recorded %d iteration stats, want %d", got, iters)
			}
		})
	}
}

// TestToleranceNeedsResidual: a nil Residual reads 0, so a loop with a
// Tolerance and no Residual would stop after one iteration as if converged;
// NewSuperstepLoop refuses it instead, before spawning any worker.
func TestToleranceNeedsResidual(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSuperstepLoop accepted Tolerance > 0 with a nil Residual")
		}
	}()
	l := NewSuperstepLoop(SuperstepConfig{Threads: 2, Tolerance: 1e-6}, PhaseKernels{Scatter: func(int) {}})
	l.Close()
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
