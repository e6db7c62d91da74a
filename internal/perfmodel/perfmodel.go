// Package perfmodel turns classified per-thread work counts into estimated
// execution time and memory-traffic metrics for a simulated machine. It is
// the substitute for wall-clock measurements and hardware performance
// counters on the paper's testbeds: the engines count the events their data
// structures actually generate (edges processed, cache-resident accesses,
// local/remote DRAM bytes), and the model prices those events with the
// machine's latencies and bandwidths.
//
// Model structure, per thread:
//
//	time = compute + cache-hit latency + random-DRAM latency (with memory-
//	       level parallelism) + streaming time under shared bandwidth
//
// with per-node DRAM bandwidth shared among that node's streaming threads,
// cross-node streams bounded by the interconnect, an SMT penalty when two
// active threads share a physical core, and per-iteration barrier and
// scheduler (spawn/migration) costs added on top. The run's estimated time
// is the slowest thread's time — the barrier structure of scatter-gather
// makes every phase as slow as its slowest participant.
package perfmodel

import (
	"fmt"

	"hipa/internal/machine"
)

// MLP is the memory-level parallelism for random accesses that hit in the
// cache hierarchy: out-of-order cores keep many such loads in flight, so the
// effective latency is divided by this factor.
const MLP = 8.0

// MLPDram is the (lower) memory-level parallelism for random accesses that
// miss all caches: TLB misses and DRAM row conflicts limit the overlap of
// truly random DRAM reads.
const MLPDram = 3.0

// SMTPenalty multiplies a thread's compute time when its hyper-thread
// sibling is also active (two threads share one core's execution ports;
// combined throughput ≈ 1.3x a single thread).
const SMTPenalty = 1.5

// CacheLevel classifies where a thread's partition-sized working set
// resides.
type CacheLevel int

const (
	// LevelL2 means the working set fits in the thread's share of L2.
	LevelL2 CacheLevel = iota
	// LevelLLC means it spills to the node's shared LLC.
	LevelLLC
	// LevelDRAM means it exceeds even the LLC share.
	LevelDRAM
)

// String names the level.
func (c CacheLevel) String() string {
	switch c {
	case LevelL2:
		return "L2"
	case LevelLLC:
		return "LLC"
	default:
		return "DRAM"
	}
}

// ClassifyPartitionRandom splits a partition-centric thread's random
// accesses across cache levels. Two distinct capacity questions govern the
// split (paper §4.5):
//
//  1. L2 residency: the partition's vertex subset plus the live part of its
//     edge subset and scatter buffer (partBytes × slack) must fit the
//     thread's share of the private L2 (halved when the hyper-thread
//     sibling is active). If it fits, random accesses are L2 hits.
//  2. LLC residency: otherwise the *vertex subsets* of all concurrently
//     active partitions on the node (partBytes × threadsOnNode) compete for
//     the node's LLC (plus the aggregate L2 for a non-inclusive/victim
//     hierarchy). The fit is graceful: the fitting fraction hits LLC, the
//     overflow goes to DRAM.
//
// capBytes, when positive, bounds the aggregate demand: the union of all
// threads' partitions can never exceed the graph's total attribute
// footprint on the node (validated against the exact cache simulator in
// internal/validate).
//
// The returned fractions (fL2, fLLC, fDRAM) sum to 1.
func ClassifyPartitionRandom(m *machine.Machine, partBytes int64, slack float64, physShared bool, threadsOnNode int, capBytes int64) (fL2, fLLC, fDRAM float64) {
	effL2 := int64(m.L2.SizeBytes)
	if physShared {
		effL2 /= 2
	}
	if int64(float64(partBytes)*slack) <= effL2 {
		return 1, 0, 0
	}
	if threadsOnNode < 1 {
		threadsOnNode = 1
	}
	avail := int64(m.LLC.SizeBytes)
	if !m.LLCInclusive {
		avail += int64(m.L2.SizeBytes) * int64(m.CoresPerNode)
	}
	demand := int64(float64(partBytes) * slack * float64(threadsOnNode))
	if capBytes > 0 && demand > capBytes {
		demand = capBytes
	}
	if demand <= avail {
		return 0, 1, 0
	}
	hit := float64(avail) / float64(demand)
	return 0, hit, 1 - hit
}

// WorkingSetLevel decides where a working set of wsBytes per thread lives,
// given whether the thread shares its physical core with another active
// thread (halving the private L2) and how many active threads share the
// node's LLC. For non-inclusive LLCs (Skylake) the spill capacity is LLC +
// L2 (exclusive-ish); for inclusive LLCs (Haswell) it is the LLC alone.
func WorkingSetLevel(m *machine.Machine, wsBytes int64, physShared bool, threadsOnNode int) CacheLevel {
	l2 := int64(m.L2.SizeBytes)
	if physShared {
		l2 /= 2
	}
	if wsBytes <= l2 {
		return LevelL2
	}
	if threadsOnNode < 1 {
		threadsOnNode = 1
	}
	llcShare := int64(m.LLC.SizeBytes) / int64(threadsOnNode)
	if !m.LLCInclusive {
		llcShare += l2
	}
	if wsBytes <= llcShare {
		return LevelLLC
	}
	return LevelDRAM
}

// ThreadCost is the classified work of one thread over the whole run.
type ThreadCost struct {
	// Node is the NUMA node the thread runs on.
	Node int
	// PhysShared marks a thread whose hyper-thread sibling is also active.
	PhysShared bool

	// ComputeCycles covers arithmetic and branch work (≈ cycles/edge).
	ComputeCycles float64

	// Cache-resident accesses by level (L1 hits are folded into compute).
	L2Accesses  int64
	LLCAccesses int64

	// Random DRAM accesses (latency-bound cache-line fills).
	RandomLocal  int64
	RandomRemote int64

	// Streaming DRAM traffic in bytes (bandwidth-bound).
	StreamLocalBytes  int64
	StreamRemoteBytes int64
}

// dramLocalBytes is all local DRAM bytes including random line fills.
func (t ThreadCost) dramLocalBytes(lineBytes int) int64 {
	return t.StreamLocalBytes + t.RandomLocal*int64(lineBytes)
}

func (t ThreadCost) dramRemoteBytes(lineBytes int) int64 {
	return t.StreamRemoteBytes + t.RandomRemote*int64(lineBytes)
}

// Run is the model input for one engine execution.
type Run struct {
	Machine *machine.Machine
	Threads []ThreadCost
	// Barriers is the number of full synchronisation barriers executed.
	Barriers int64
	// SchedCostNS is the scheduler overhead (spawns + migrations) from
	// internal/sched.
	SchedCostNS float64
	// UncoordinatedStreams marks runs whose threads stream unrelated,
	// non-contiguous regions (FCFS partition claiming, per-region thread
	// pools). When more streaming threads than physical cores are active on
	// a node, their interleaved access streams defeat prefetching and cause
	// DRAM row conflicts, cutting the node's effective bandwidth by
	// cores/demanders — the saturation the paper describes in §4.4. HiPa's
	// pinned threads stream contiguous per-group regions (§3.4) and keep
	// full efficiency.
	UncoordinatedStreams bool
	// EdgesProcessed is the total edge-work for MApE normalisation
	// (|E| × iterations / iterations = |E| per iteration; callers pass the
	// per-run total and the iteration count).
	EdgesProcessed int64
	Iterations     int
}

// Report is the model output. The json tags define the stable
// machine-readable form exported by the obs run reports.
type Report struct {
	// EstimatedSeconds is the modelled execution time of the whole run.
	EstimatedSeconds float64 `json:"estimated_seconds"`
	// PerThreadSeconds is each thread's modelled busy time.
	PerThreadSeconds []float64 `json:"per_thread_seconds"`

	// DRAM traffic totals (bytes), including random-access line fills.
	LocalBytes  int64 `json:"local_bytes"`
	RemoteBytes int64 `json:"remote_bytes"`

	// MApE is memory accesses per edge in bytes (Fig. 5): total DRAM bytes
	// divided by (|E| × iterations).
	MApE float64 `json:"mape"`
	// RemoteMApE is the remote portion of MApE.
	RemoteMApE float64 `json:"remote_mape"`
	// RemoteFraction = RemoteBytes / (LocalBytes + RemoteBytes).
	RemoteFraction float64 `json:"remote_fraction"`

	// LLCAccesses is the total modelled LLC traffic (for Fig. 7).
	LLCAccesses int64 `json:"llc_accesses"`
	L2Accesses  int64 `json:"l2_accesses"`
	// RandomDRAMAccesses is the total random accesses that missed all
	// caches; LLCAccesses/(LLCAccesses+RandomDRAMAccesses) approximates the
	// LLC hit ratio the paper reads from hardware counters.
	RandomDRAMAccesses int64 `json:"random_dram_accesses"`

	// Iterations echoes the performed (not configured) iteration count the
	// run was priced for, so tolerance-terminated runs stay auditable
	// against Result.Iterations and the per-iteration statistics.
	Iterations int `json:"iterations"`
}

// LLCHitRatio returns the modelled LLC hit ratio over random accesses.
func (r *Report) LLCHitRatio() float64 {
	t := r.LLCAccesses + r.RandomDRAMAccesses
	if t == 0 {
		return 0
	}
	return float64(r.LLCAccesses) / float64(t)
}

// Estimate prices the run.
func Estimate(r Run) (*Report, error) {
	m := r.Machine
	if m == nil {
		return nil, fmt.Errorf("perfmodel: nil machine")
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("perfmodel: %w", err)
	}
	if len(r.Threads) == 0 {
		return nil, fmt.Errorf("perfmodel: no threads")
	}
	line := m.L1.LineBytes

	// Per-node demand for bandwidth sharing.
	localDemanders := make([]int, m.NUMANodes)
	remoteDemanders := make([]int, m.NUMANodes)
	for _, t := range r.Threads {
		if t.Node < 0 || t.Node >= m.NUMANodes {
			return nil, fmt.Errorf("perfmodel: thread on node %d of %d", t.Node, m.NUMANodes)
		}
		if t.StreamLocalBytes > 0 {
			localDemanders[t.Node]++
		}
		if t.StreamRemoteBytes > 0 {
			remoteDemanders[t.Node]++
		}
	}
	totalRemoteDemanders := 0
	for _, d := range remoteDemanders {
		totalRemoteDemanders += d
	}

	rep := &Report{PerThreadSeconds: make([]float64, len(r.Threads)), Iterations: r.Iterations}
	var slowest float64
	// Every product that feeds an add is rounded by an explicit float64
	// conversion: Go may fuse a multiply and an add into one instruction
	// (arm64 does), which rounds once, and the goldens pin these seconds to
	// the bit.
	for i, t := range r.Threads {
		// Compute.
		comp := t.ComputeCycles / (m.CPUGHz * 1e9)
		if t.PhysShared {
			comp = float64(comp * SMTPenalty)
		}
		// Cache-hit latencies, charged relative to L1 (an L1-resident access
		// is already covered by the compute constants) and overlapped
		// MLP-wide like DRAM misses.
		l2ns := m.L2.LatencyNS - m.L1.LatencyNS
		llcns := m.LLC.LatencyNS - m.L1.LatencyNS
		cache := float64((float64(float64(t.L2Accesses)*l2ns) + float64(float64(t.LLCAccesses)*llcns)) / MLP * 1e-9)
		// Random DRAM latency with (limited) overlap. Random misses are
		// latency-priced only; their line fills count toward the traffic
		// totals below but not toward stream bandwidth, because a
		// latency-bound access pattern cannot saturate the memory bus.
		random := float64((float64(float64(t.RandomLocal)*m.LocalLatencyNS) + float64(float64(t.RandomRemote)*m.RemoteLatencyNS)) / MLPDram * 1e-9)
		// Streaming bandwidth, shared per node. Uncoordinated streams from
		// more threads than physical cores defeat prefetching and cause
		// row conflicts, cutting effective bandwidth by cores/demanders
		// (§4.4's saturation); this applies to the node's DRAM controller
		// and to the cross-node interconnect alike.
		lb := float64(t.StreamLocalBytes)
		rb := float64(t.StreamRemoteBytes)
		localBW := m.LocalBandwidth
		if d := localDemanders[t.Node]; d > 0 {
			nodeBW := m.NodeBandwidth
			if r.UncoordinatedStreams && d > m.CoresPerNode {
				nodeBW *= float64(m.CoresPerNode) / float64(d)
			}
			if shared := nodeBW / float64(d); shared < localBW {
				localBW = shared
			}
		}
		remoteBW := m.RemoteBandwidth
		if totalRemoteDemanders > 0 {
			linkBW := m.InterconnectGBps * 1e9
			if r.UncoordinatedStreams && totalRemoteDemanders > m.PhysicalCores() {
				linkBW *= float64(m.PhysicalCores()) / float64(totalRemoteDemanders)
			}
			if shared := linkBW / float64(totalRemoteDemanders); shared < remoteBW {
				remoteBW = shared
			}
		}
		stream := lb/localBW + rb/remoteBW
		sec := comp + cache + random + stream
		rep.PerThreadSeconds[i] = sec
		if sec > slowest {
			slowest = sec
		}
		rep.LocalBytes += t.dramLocalBytes(line)
		rep.RemoteBytes += t.dramRemoteBytes(line)
		rep.LLCAccesses += t.LLCAccesses
		rep.L2Accesses += t.L2Accesses
		rep.RandomDRAMAccesses += t.RandomLocal + t.RandomRemote
	}
	rep.EstimatedSeconds = slowest +
		float64(float64(r.Barriers)*m.SyncBarrierNS*1e-9) +
		float64(r.SchedCostNS*1e-9)

	if total := rep.LocalBytes + rep.RemoteBytes; total > 0 {
		rep.RemoteFraction = float64(rep.RemoteBytes) / float64(total)
	}
	if r.EdgesProcessed > 0 {
		rep.MApE = float64(rep.LocalBytes+rep.RemoteBytes) / float64(r.EdgesProcessed)
		rep.RemoteMApE = float64(rep.RemoteBytes) / float64(r.EdgesProcessed)
	}
	return rep, nil
}
