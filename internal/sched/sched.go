// Package sched simulates the operating-system thread scheduler of a NUMA
// multicore machine: thread creation on arbitrary logical cores, affinity
// binding to NUMA nodes or explicit logical cores, and the thread migrations
// that binding triggers when a thread starts on the wrong node.
//
// It substitutes for pthread affinity plus the VTune thread-migration
// counters used in the paper (§3.3). The paper's two processing models are
// both expressible:
//
//   - Algorithm 1 (NUMA-oblivious scatter-gather): every parallel region
//     spawns a fresh thread pool, so over I iterations with two phases and T
//     threads, up to I×2×T spawns occur, each risking a migration when bound.
//   - Algorithm 2 (HiPa): T threads are spawned once, bound once, and live
//     for the whole computation, so at most T migrations occur.
//
// Placement is deterministic given the seed. A Scheduler is not safe for
// concurrent use.
package sched

import (
	"fmt"
	"math/rand/v2"

	"hipa/internal/machine"
)

// Placement selects how the simulated OS chooses a logical core for a new
// thread.
type Placement int

const (
	// PlacementRandom mimics a real OS under load: a uniformly random free
	// logical core (random core if all are busy), with no awareness of
	// physical-core pairing — two new threads may land on hyper-thread
	// siblings even when whole physical cores are idle (§3.3.1).
	PlacementRandom Placement = iota
	// PlacementSequential packs threads onto logical cores in index order;
	// useful for deterministic unit tests.
	PlacementSequential
)

// Thread is one simulated software thread.
type Thread struct {
	ID      int
	Logical int // current logical core
	// BoundNode is the NUMA node the thread is bound to, or -1 if unbound.
	BoundNode int
	// PinnedLogical is >= 0 if the thread has hard affinity to one logical
	// core.
	PinnedLogical int
	alive         bool
}

// Node returns the NUMA node the thread currently runs on.
func (t *Thread) Node(m *machine.Machine) int { return m.NodeOfLogical(t.Logical) }

// Stats accumulates scheduler events and their modelled costs. The json
// tags define the stable machine-readable form exported by the obs run
// reports.
type Stats struct {
	Spawned    int64 `json:"spawned"`
	Terminated int64 `json:"terminated"`
	Bindings   int64 `json:"bindings"`
	// Migrations counts thread moves to a different logical core caused by
	// binding or pinning.
	Migrations int64 `json:"migrations"`
	// CrossNodeMigrations is the subset of Migrations that crossed NUMA
	// nodes (the expensive kind: context transfer through remote memory).
	CrossNodeMigrations int64 `json:"cross_node_migrations"`
	// CostNS is the summed modelled cost of spawns and migrations.
	CostNS float64 `json:"cost_ns"`
}

// Scheduler simulates the OS scheduler for one machine.
type Scheduler struct {
	mach    *machine.Machine
	rng     *rand.Rand
	nextID  int
	threads []*Thread
	// load[l] is the number of live threads currently on logical core l.
	load  []int
	stats Stats
}

// New returns a scheduler for machine m with a deterministic placement
// stream derived from seed.
func New(m *machine.Machine, seed uint64) *Scheduler {
	return &Scheduler{
		mach: m,
		rng:  rand.New(rand.NewPCG(seed, 0xA5A5A5A5)),
		load: make([]int, m.LogicalCores()),
	}
}

// Machine returns the scheduler's machine.
func (s *Scheduler) Machine() *machine.Machine { return s.mach }

// Stats returns a copy of the accumulated statistics.
func (s *Scheduler) Stats() Stats { return s.stats }

// LiveThreads returns the currently live threads.
func (s *Scheduler) LiveThreads() []*Thread {
	var out []*Thread
	for _, t := range s.threads {
		if t.alive {
			out = append(out, t)
		}
	}
	return out
}

// Spawn creates one thread placed per the given policy and returns it.
func (s *Scheduler) Spawn(p Placement) *Thread {
	logical := s.pick(p)
	t := &Thread{
		ID:            s.nextID,
		Logical:       logical,
		BoundNode:     -1,
		PinnedLogical: -1,
		alive:         true,
	}
	s.nextID++
	s.threads = append(s.threads, t)
	s.load[logical]++
	s.stats.Spawned++
	s.stats.CostNS += s.mach.ThreadSpawnNS
	return t
}

// SpawnN creates n threads.
func (s *Scheduler) SpawnN(n int, p Placement) []*Thread {
	out := make([]*Thread, n)
	for i := range out {
		out[i] = s.Spawn(p)
	}
	return out
}

func (s *Scheduler) pick(p Placement) int {
	n := len(s.load)
	switch p {
	case PlacementSequential:
		best, bestLoad := 0, s.load[0]
		for l := 1; l < n; l++ {
			if s.load[l] < bestLoad {
				best, bestLoad = l, s.load[l]
			}
		}
		return best
	default:
		// A real OS mostly load-balances across physical cores first, but
		// not reliably — the paper's §3.3.1 point is that "it might occur
		// that two selected logic cores correspond to the same physical
		// core". Model: 75% of placements pick a logical core on a fully
		// idle physical core when one exists; the rest pick any free
		// logical core; oversubscribed spawns land anywhere.
		var idlePhys, free []int
		for l, ld := range s.load {
			if ld > 0 {
				continue
			}
			free = append(free, l)
			sib := s.mach.SiblingOfLogical(l)
			if sib < 0 || s.load[sib] == 0 {
				idlePhys = append(idlePhys, l)
			}
		}
		if len(idlePhys) > 0 && s.rng.Float64() < 0.75 {
			return idlePhys[s.rng.IntN(len(idlePhys))]
		}
		if len(free) > 0 {
			return free[s.rng.IntN(len(free))]
		}
		return s.rng.IntN(n)
	}
}

// Bind binds t to a NUMA node. If t currently runs on a different node it
// migrates to a logical core on the target node (least-loaded, tie-broken by
// index), which counts as a cross-node migration with its modelled cost.
func (s *Scheduler) Bind(t *Thread, node int) error {
	if node < 0 || node >= s.mach.NUMANodes {
		return fmt.Errorf("sched: bind to node %d of %d-node machine", node, s.mach.NUMANodes)
	}
	if !t.alive {
		return fmt.Errorf("sched: thread %d is terminated", t.ID)
	}
	s.stats.Bindings++
	t.BoundNode = node
	if t.Node(s.mach) == node {
		return nil
	}
	// Migration to the least-loaded logical core on the target node.
	lo := node * s.mach.LogicalPerNode()
	hi := lo + s.mach.LogicalPerNode()
	best, bestLoad := lo, s.load[lo]
	for l := lo + 1; l < hi; l++ {
		if s.load[l] < bestLoad {
			best, bestLoad = l, s.load[l]
		}
	}
	s.migrate(t, best)
	return nil
}

// PinToLogical gives t hard affinity to one logical core, migrating if
// needed. This is what HiPa's thread-data pinning uses after node binding.
func (s *Scheduler) PinToLogical(t *Thread, logical int) error {
	if logical < 0 || logical >= s.mach.LogicalCores() {
		return fmt.Errorf("sched: pin to logical %d of %d", logical, s.mach.LogicalCores())
	}
	if !t.alive {
		return fmt.Errorf("sched: thread %d is terminated", t.ID)
	}
	t.PinnedLogical = logical
	t.BoundNode = s.mach.NodeOfLogical(logical)
	if t.Logical != logical {
		s.migrate(t, logical)
	}
	return nil
}

func (s *Scheduler) migrate(t *Thread, to int) {
	from := t.Logical
	cross := s.mach.NodeOfLogical(from) != s.mach.NodeOfLogical(to)
	s.load[from]--
	s.load[to]++
	t.Logical = to
	s.stats.Migrations++
	if cross {
		s.stats.CrossNodeMigrations++
		s.stats.CostNS += s.mach.ThreadMigrationNS
	} else {
		// Same-node migration: context moves through the shared LLC, an
		// order of magnitude cheaper.
		s.stats.CostNS += s.mach.ThreadMigrationNS / 10
	}
}

// Terminate ends a thread and frees its core.
func (s *Scheduler) Terminate(t *Thread) {
	if !t.alive {
		return
	}
	t.alive = false
	s.load[t.Logical]--
	s.stats.Terminated++
}

// ContendedPhysicalCores returns how many physical cores currently host two
// or more live threads — the paper's hyper-thread contention condition
// (§3.3.1: paired logical cores competing for the same L2).
func (s *Scheduler) ContendedPhysicalCores() int {
	perPhys := make([]int, s.mach.PhysicalCores())
	for l, ld := range s.load {
		perPhys[s.mach.PhysicalOfLogical(l)] += ld
	}
	n := 0
	for _, c := range perPhys {
		if c >= 2 {
			n++
		}
	}
	return n
}

// ThreadsOnNode returns the number of live threads per NUMA node.
func (s *Scheduler) ThreadsOnNode() []int {
	out := make([]int, s.mach.NUMANodes)
	for l, ld := range s.load {
		out[s.mach.NodeOfLogical(l)] += ld
	}
	return out
}

// RunObliviousRegions simulates Algorithm 1's thread lifecycle: for each of
// `regions` parallel regions it spawns `threads` threads, optionally binds
// them round-robin to NUMA nodes (a NUMA-aware retrofit of the oblivious
// model, the paper's worst case), and terminates them at the region's
// barrier. It returns the scheduler stats delta.
func (s *Scheduler) RunObliviousRegions(regions, threads int, bindNodes bool) (Stats, error) {
	before := s.stats
	for r := 0; r < regions; r++ {
		pool := s.SpawnN(threads, PlacementRandom)
		if bindNodes {
			for i, t := range pool {
				if err := s.Bind(t, i%s.mach.NUMANodes); err != nil {
					return Stats{}, err
				}
			}
		}
		for _, t := range pool {
			s.Terminate(t)
		}
	}
	return delta(before, s.stats), nil
}

// RunPinnedThreads simulates Algorithm 2's lifecycle: spawn `threads`
// persistent threads once, bind thread i to node i/(threads/nodes) (block
// assignment, matching HiPa's partition placement) and pin it to a distinct
// logical core there. The threads stay alive. It returns the threads and
// the stats delta.
func (s *Scheduler) RunPinnedThreads(threads int) ([]*Thread, Stats, error) {
	before := s.stats
	if threads > s.mach.LogicalCores() {
		return nil, Stats{}, fmt.Errorf("sched: %d threads exceed %d logical cores", threads, s.mach.LogicalCores())
	}
	pool := s.SpawnN(threads, PlacementRandom)
	perNode := (threads + s.mach.NUMANodes - 1) / s.mach.NUMANodes
	for i, t := range pool {
		node := i / perNode
		if node >= s.mach.NUMANodes {
			node = s.mach.NUMANodes - 1
		}
		// Spread across physical cores first, then fill hyper-thread
		// siblings: thread j on a node takes hyper-thread j/coresPerNode of
		// physical core j%coresPerNode. With 20 threads on a 2x10-core
		// machine every thread owns a whole physical core; with 40 the
		// sibling pairs fill up.
		j := i % perNode
		logical := node*s.mach.LogicalPerNode() +
			(j%s.mach.CoresPerNode)*s.mach.ThreadsPerCore + j/s.mach.CoresPerNode
		if err := s.PinToLogical(t, logical); err != nil {
			return nil, Stats{}, err
		}
	}
	return pool, delta(before, s.stats), nil
}

func delta(before, after Stats) Stats {
	return Stats{
		Spawned:             after.Spawned - before.Spawned,
		Terminated:          after.Terminated - before.Terminated,
		Bindings:            after.Bindings - before.Bindings,
		Migrations:          after.Migrations - before.Migrations,
		CrossNodeMigrations: after.CrossNodeMigrations - before.CrossNodeMigrations,
		CostNS:              after.CostNS - before.CostNS,
	}
}
