package platform

import (
	"hipa/internal/machine"
	"hipa/internal/perfmodel"
	"hipa/internal/sched"
)

// Modeled is the simulated platform: spawns run through the deterministic
// scheduler simulation, accounting classifies events against the machine's
// cache and NUMA geometry, and Finalize prices the run with the analytic
// model. One Modeled value per machine; safe for concurrent use.
type Modeled struct {
	m *machine.Machine
}

// NewModeled wraps a simulated machine as a platform. nil selects the
// Skylake preset.
func NewModeled(m *machine.Machine) *Modeled {
	if m == nil {
		m = machine.SkylakeSilver4210()
	}
	return &Modeled{m: m}
}

// Name implements Platform with the microarchitecture family ("skylake",
// "haswell") — the same names the -platform CLI flag accepts.
func (p *Modeled) Name() string { return p.m.Microarch }

// Machine implements Platform.
func (p *Modeled) Machine() *machine.Machine { return p.m }

// Modeled implements Platform.
func (p *Modeled) Modeled() bool { return true }

// SpawnPinned implements Platform: Algorithm 2's lifecycle on the scheduler
// simulation — threads spawned once, bound to distinct logical cores, at
// most `threads` migrations for the whole run.
func (p *Modeled) SpawnPinned(seed uint64, threads int) (*Pool, error) {
	sc := sched.New(p.m, seed)
	pool, stats, err := sc.RunPinnedThreads(threads)
	if err != nil {
		return nil, err
	}
	nodes, shared := ThreadPlacement(pool, p.m)
	pinned := make([]int, len(pool))
	for i, t := range pool {
		pinned[i] = t.Logical
	}
	return &Pool{
		Threads: threads,
		Nodes:   nodes,
		Shared:  shared,
		Stats:   stats,
		m:       p.m,
		pinned:  pinned,
	}, nil
}

// SpawnOblivious implements Platform: Algorithm 1's thread lifecycle. The
// returned placement is a representative snapshot (the first region's pool)
// from an identically seeded scheduler; the stats cover the full lifecycle
// of `regions` pool spawn/terminate rounds.
func (p *Modeled) SpawnOblivious(seed uint64, regions, threads int, bindNodes bool) (*Pool, error) {
	m := p.m
	// Placement snapshot from an identical-seed scheduler's first pool.
	snap := sched.New(m, seed)
	pool := snap.SpawnN(threads, sched.PlacementRandom)
	if bindNodes {
		for i, t := range pool {
			if err := snap.Bind(t, i%m.NUMANodes); err != nil {
				return nil, err
			}
		}
	}
	nodes, shared := ThreadPlacement(pool, m)

	// Full lifecycle stats.
	sc := sched.New(m, seed)
	stats, err := sc.RunObliviousRegions(regions, threads, bindNodes)
	if err != nil {
		return nil, err
	}
	return &Pool{
		Threads: threads,
		Nodes:   nodes,
		Shared:  shared,
		Stats:   stats,
		m:       m,
	}, nil
}

// NewAccounting implements Platform: per-thread cost accumulators primed
// with the pool's placement.
func (p *Modeled) NewAccounting(pool *Pool) *Accounting {
	costs := make([]perfmodel.ThreadCost, pool.Threads)
	for t := range costs {
		costs[t].Node = pool.Nodes[t]
		costs[t].PhysShared = pool.Shared[t]
	}
	return &Accounting{
		m:           p.m,
		nodes:       pool.Nodes,
		shared:      pool.Shared,
		costs:       costs,
		schedCostNS: pool.Stats.CostNS,
	}
}

// Finalize implements Platform: the accumulated per-thread costs become the
// perfmodel input and the analytic estimate is computed.
func (p *Modeled) Finalize(a *Accounting, shape RunShape) (*perfmodel.Report, error) {
	return perfmodel.Estimate(perfmodel.Run{
		Machine:              p.m,
		Threads:              a.costs,
		Barriers:             a.barriers,
		SchedCostNS:          a.schedCostNS,
		EdgesProcessed:       shape.EdgesProcessed,
		Iterations:           shape.Iterations,
		UncoordinatedStreams: shape.UncoordinatedStreams,
	})
}
