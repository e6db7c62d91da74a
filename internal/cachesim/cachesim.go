// Package cachesim implements a trace-driven, set-associative, LRU cache
// hierarchy simulator: private L1 and L2 per physical core (shared by the
// core's two hyper-threads) and a shared per-node last-level cache, with
// both inclusive (Haswell) and non-inclusive/victim (Skylake) LLC policies.
//
// It substitutes for the hardware cache performance counters the paper reads
// (LLC hits and hit ratios, Fig. 7): engines replay their memory reference
// streams through a System and read the counters back. The simulator is the
// exact model; the fast analytic model in internal/perfmodel is
// cross-validated against it in tests.
//
// A System is not safe for concurrent use; drive it from one goroutine.
package cachesim

import (
	"fmt"

	"hipa/internal/machine"
)

// Level identifies where an access was satisfied.
type Level int

const (
	// HitL1 means the line was found in the private L1.
	HitL1 Level = iota
	// HitL2 means the line was found in the private L2.
	HitL2
	// HitLLC means the line was found in the node's shared LLC.
	HitLLC
	// Memory means all cache levels missed.
	Memory
)

// String returns the conventional level name.
func (l Level) String() string {
	switch l {
	case HitL1:
		return "L1"
	case HitL2:
		return "L2"
	case HitLLC:
		return "LLC"
	default:
		return "MEM"
	}
}

// cache is one set-associative LRU cache. Tags are stored as tag+1 so the
// zero value means invalid.
type cache struct {
	sets     int
	assoc    int
	lineBits uint
	setMask  uint64
	tags     []uint64 // sets*assoc entries, tag+1, 0 = invalid
	stamps   []uint64 // LRU timestamps, parallel to tags
	clock    uint64

	hits, misses uint64
}

func newCache(c machine.Cache) *cache {
	sets := c.Sets()
	lineBits := uint(0)
	for 1<<lineBits < c.LineBytes {
		lineBits++
	}
	return &cache{
		sets:     sets,
		assoc:    c.Assoc,
		lineBits: lineBits,
		setMask:  uint64(sets - 1),
		tags:     make([]uint64, sets*c.Assoc),
		stamps:   make([]uint64, sets*c.Assoc),
	}
}

// lineOf maps an address to its line number.
func (c *cache) lineOf(addr uint64) uint64 { return addr >> c.lineBits }

// setIndex maps a line to its set. Sets counts are powers of two for the
// presets; for non-power-of-two set counts we fall back to modulo.
func (c *cache) setIndex(line uint64) int {
	if c.sets&(c.sets-1) == 0 {
		return int(line & c.setMask)
	}
	return int(line % uint64(c.sets))
}

// lookup probes for the line; on hit it refreshes LRU state.
func (c *cache) lookup(line uint64) bool {
	base := c.setIndex(line) * c.assoc
	stored := line + 1
	for i := 0; i < c.assoc; i++ {
		if c.tags[base+i] == stored {
			c.clock++
			c.stamps[base+i] = c.clock
			c.hits++
			return true
		}
	}
	c.misses++
	return false
}

// insert places the line, evicting the LRU way if needed. It returns the
// evicted line and whether an eviction of a valid line occurred.
func (c *cache) insert(line uint64) (victim uint64, evicted bool) {
	base := c.setIndex(line) * c.assoc
	stored := line + 1
	// Already present (e.g. refilled by a sibling path): refresh only.
	for i := 0; i < c.assoc; i++ {
		if c.tags[base+i] == stored {
			c.clock++
			c.stamps[base+i] = c.clock
			return 0, false
		}
	}
	// Free way?
	lruIdx, lruStamp := -1, ^uint64(0)
	for i := 0; i < c.assoc; i++ {
		if c.tags[base+i] == 0 {
			c.clock++
			c.tags[base+i] = stored
			c.stamps[base+i] = c.clock
			return 0, false
		}
		if c.stamps[base+i] < lruStamp {
			lruStamp = c.stamps[base+i]
			lruIdx = i
		}
	}
	victim = c.tags[base+lruIdx] - 1
	c.clock++
	c.tags[base+lruIdx] = stored
	c.stamps[base+lruIdx] = c.clock
	return victim, true
}

// invalidate removes the line if present.
func (c *cache) invalidate(line uint64) {
	base := c.setIndex(line) * c.assoc
	stored := line + 1
	for i := 0; i < c.assoc; i++ {
		if c.tags[base+i] == stored {
			c.tags[base+i] = 0
			return
		}
	}
}

// contains probes without touching LRU or counters (for invariant checks).
func (c *cache) contains(line uint64) bool {
	base := c.setIndex(line) * c.assoc
	stored := line + 1
	for i := 0; i < c.assoc; i++ {
		if c.tags[base+i] == stored {
			return true
		}
	}
	return false
}

// Stats holds hit/miss counters for one cache level aggregated over the
// system.
type Stats struct {
	Hits, Misses uint64
}

// Ratio returns Hits / (Hits + Misses), or 0 when no accesses occurred.
func (s Stats) Ratio() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Hits) / float64(t)
}

// System simulates the cache hierarchy of a machine.
type System struct {
	mach      *machine.Machine
	l1        []*cache // per physical core
	l2        []*cache // per physical core
	llc       []*cache // per node
	inclusive bool
	lineBytes int
}

// NewSystem builds a cache system for m.
func NewSystem(m *machine.Machine) *System {
	if err := m.Validate(); err != nil {
		panic("cachesim: " + err.Error())
	}
	s := &System{
		mach:      m,
		inclusive: m.LLCInclusive,
		lineBytes: m.L1.LineBytes,
	}
	for i := 0; i < m.PhysicalCores(); i++ {
		s.l1 = append(s.l1, newCache(m.L1))
		s.l2 = append(s.l2, newCache(m.L2))
	}
	for i := 0; i < m.NUMANodes; i++ {
		s.llc = append(s.llc, newCache(m.LLC))
	}
	return s
}

// LineBytes returns the cache line size.
func (s *System) LineBytes() int { return s.lineBytes }

// Access simulates one memory reference by the given logical core and
// returns the level that satisfied it. addr is a byte address in the
// simulated address space.
func (s *System) Access(logical int, addr uint64) Level {
	phys := s.mach.PhysicalOfLogical(logical)
	node := s.mach.NodeOfLogical(logical)
	l1, l2, llc := s.l1[phys], s.l2[phys], s.llc[node]
	line := l1.lineOf(addr)

	if l1.lookup(line) {
		return HitL1
	}
	if l2.lookup(line) {
		// Promote to L1.
		s.fillL1(phys, line)
		return HitL2
	}
	if llc.lookup(line) {
		s.fillL2(phys, node, line)
		s.fillL1(phys, line)
		if !s.inclusive {
			// Non-inclusive/victim LLC: the line moves up; drop it from LLC
			// so capacity is not duplicated (Skylake behaviour).
			llc.invalidate(line)
		}
		return HitLLC
	}
	// Memory fill.
	if s.inclusive {
		// Inclusive: fill LLC too; LLC evictions back-invalidate L1/L2 of
		// every core on the node.
		if victim, ev := llc.insert(line); ev {
			s.backInvalidate(node, victim)
		}
	}
	// Non-inclusive Skylake: memory fills go straight to L2/L1; the LLC is
	// populated by L2 victims (handled in fillL2).
	s.fillL2(phys, node, line)
	s.fillL1(phys, line)
	return Memory
}

func (s *System) fillL1(phys int, line uint64) {
	s.l1[phys].insert(line) // L1 victims are clean drops in this model
}

func (s *System) fillL2(phys, node int, line uint64) {
	victim, ev := s.l2[phys].insert(line)
	if !ev {
		return
	}
	// The L2 victim may still be in L1; keep L1 coherent with the model's
	// simple exclusive-above-L2 assumption by dropping it.
	s.l1[phys].invalidate(victim)
	if !s.inclusive {
		// Victim cache behaviour: evicted L2 lines land in the LLC.
		if llcVictim, llcEv := s.llc[node].insert(victim); llcEv {
			_ = llcVictim // clean drop to memory
		}
	}
}

func (s *System) backInvalidate(node int, line uint64) {
	first := node * s.mach.CoresPerNode
	for p := first; p < first+s.mach.CoresPerNode; p++ {
		s.l1[p].invalidate(line)
		s.l2[p].invalidate(line)
	}
}

// L1Stats returns aggregate L1 counters.
func (s *System) L1Stats() Stats { return sumStats(s.l1) }

func sumStats(cs []*cache) Stats {
	var st Stats
	for _, c := range cs {
		st.Hits += c.hits
		st.Misses += c.misses
	}
	return st
}

// Reset clears all cache contents and counters.
func (s *System) Reset() {
	for i := range s.l1 {
		s.l1[i] = newCache(s.mach.L1)
		s.l2[i] = newCache(s.mach.L2)
	}
	for i := range s.llc {
		s.llc[i] = newCache(s.mach.LLC)
	}
}

// CheckInclusion verifies the inclusive-LLC invariant (every valid L2 line
// is present in its node's LLC). It returns an error naming the first
// violation and is intended for tests; it is a no-op for non-inclusive
// systems.
func (s *System) CheckInclusion() error {
	if !s.inclusive {
		return nil
	}
	for p, l2 := range s.l2 {
		node := p / s.mach.CoresPerNode
		for _, t := range l2.tags {
			if t == 0 {
				continue
			}
			if !s.llc[node].contains(t - 1) {
				return fmt.Errorf("cachesim: L2 of core %d holds line %d absent from node %d LLC", p, t-1, node)
			}
		}
	}
	return nil
}
