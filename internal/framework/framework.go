// Package framework generalises the HiPa substrate into a small
// partition-centric graph processing framework — the "more generic use
// scenarios" the paper's conclusion calls for (§6). A computation is a
// vertex program in gather-apply-scatter form; the framework runs it with
// HiPa's machinery: hierarchical partitioning, compressed inter-edge
// messages, persistent worker threads with one pinned partition group each,
// and per-iteration phase barriers.
//
// Unlike PageRank (where every vertex is active every iteration), generic
// programs converge by deactivation: a vertex that does not change stops
// scattering, and the computation ends when no vertex is active. The
// framework tracks activity per vertex and skips inactive sources.
//
// The message type is generic; programs supply the combine operator and its
// identity (a commutative monoid), so min/max/sum/or computations (WCC,
// SSSP, reachability, degree statistics, PageRank) all fit.
package framework

import (
	"fmt"
	"runtime"

	"hipa/internal/engines/common"
	"hipa/internal/graph"
	"hipa/internal/layout"
	"hipa/internal/partition"
)

// Value is the constraint on vertex/message values.
type Value interface {
	~float32 | ~float64 | ~uint32 | ~int32 | ~int64
}

// Program defines one partition-centric computation.
type Program[V Value] interface {
	// Init returns vertex v's initial value and whether v starts active.
	Init(v graph.VertexID) (V, bool)
	// Identity is the accumulator identity element (e.g. 0 for sum, +inf
	// for min).
	Identity() V
	// Combine merges two messages; it must be commutative and associative.
	Combine(a, b V) V
	// Scatter produces the message an active vertex v with value val sends
	// along each of its out-edges. The edge's destination is not visible —
	// partition-centric scatter writes one compressed value per
	// (vertex, destination partition) pair, exactly like HiPa's PageRank.
	Scatter(v graph.VertexID, val V) V
	// Apply folds the combined incoming messages into v's value, returning
	// the new value and whether v changed (changed vertices are active in
	// the next iteration). Apply is called only for vertices that received
	// at least one message.
	Apply(v graph.VertexID, old, acc V) (V, bool)
}

// Config configures a framework run.
type Config struct {
	// Threads (0 = GOMAXPROCS), PartitionBytes (0 = 256KB), NumNodes (0 = 2)
	// configure the HiPa substrate.
	Threads        int
	PartitionBytes int
	NumNodes       int
	// MaxIterations bounds the run; 0 runs until no vertex is active. The
	// shipped programs (WCC, Hops, Reachable) are monotone, so they finish
	// within n+1 iterations; a program that never converges needs a bound.
	MaxIterations int
}

// Result reports a framework run.
type Result[V Value] struct {
	Values     []V
	Iterations int
	// ActiveHistory is the number of scattering vertices per iteration.
	ActiveHistory []int
}

// Run executes the program until no vertex is active (or MaxIterations).
func Run[V Value](g *graph.Graph, prog Program[V], cfg Config) (*Result[V], error) {
	n := g.NumVertices()
	if n == 0 {
		return nil, fmt.Errorf("framework: empty graph")
	}
	if cfg.Threads == 0 {
		cfg.Threads = runtime.GOMAXPROCS(0)
	}
	if cfg.PartitionBytes == 0 {
		cfg.PartitionBytes = 256 << 10
	}
	if cfg.NumNodes == 0 {
		cfg.NumNodes = 2
	}
	if cfg.Threads < cfg.NumNodes {
		cfg.Threads = cfg.NumNodes
	}
	cfg.Threads = (cfg.Threads / cfg.NumNodes) * cfg.NumNodes

	hier, err := partition.Build(g, partition.Config{
		PartitionBytes: cfg.PartitionBytes,
		BytesPerVertex: 4,
		NumNodes:       cfg.NumNodes,
		GroupsPerNode:  cfg.Threads / cfg.NumNodes,
	})
	if err != nil {
		return nil, fmt.Errorf("framework: %w", err)
	}
	lay, err := layout.Build(g, hier, true)
	if err != nil {
		return nil, fmt.Errorf("framework: %w", err)
	}

	values := make([]V, n)
	active := make([]bool, n)
	nextActive := make([]bool, n)
	for v := 0; v < n; v++ {
		values[v], active[v] = prog.Init(graph.VertexID(v))
	}
	id := prog.Identity()
	acc := make([]V, n)
	gotMsg := make([]bool, n)
	for v := range acc {
		acc[v] = id
	}
	bins := make([]V, lay.NumMessages())
	binValid := make([]bool, lay.NumMessages())
	// The gather walks each partition's inter pull rows: a vertex's
	// messages in ascending index, the order a push decodes them in.
	ip := &lay.InterPull
	msgSink := graph.VertexID(lay.NumMessages())

	res := &Result[V]{}
	bar := common.NewBarrier(cfg.Threads)
	activeCounts := make([]int, cfg.Threads)
	stop := false

	common.RunThreads(cfg.Threads, func(tid int) {
		gr := hier.Groups[tid]
		for it := 0; cfg.MaxIterations == 0 || it < cfg.MaxIterations; it++ {
			// --- Scatter: own partitions' active vertices ---
			count := 0
			for pi := gr.PartStart; pi < gr.PartEnd; pi++ {
				part := hier.Partitions[pi]
				for v := int(part.VertexStart); v < int(part.VertexEnd); v++ {
					if !active[v] {
						continue
					}
					count++
					msg := prog.Scatter(graph.VertexID(v), values[v])
					// Intra-edges: combine directly into local accumulators.
					for _, d := range lay.IntraDst[lay.IntraOff[v]:lay.IntraOff[v+1]] {
						if gotMsg[d] {
							acc[d] = prog.Combine(acc[d], msg)
						} else {
							acc[d] = msg
							gotMsg[d] = true
						}
					}
				}
				// Compressed messages, block-streamed.
				for bi := lay.SrcBlockStart[pi]; bi < lay.SrcBlockEnd[pi]; bi++ {
					b := lay.Blocks[bi]
					for m := b.MsgStart; m < b.MsgEnd; m++ {
						src := lay.MsgSrc[m]
						if active[src] {
							bins[m] = prog.Scatter(src, values[src])
							binValid[m] = true
						} else {
							binValid[m] = false
						}
					}
				}
			}
			activeCounts[tid] = count
			bar.WaitLeader(func() {
				total := 0
				for i, c := range activeCounts {
					total += c
					activeCounts[i] = 0
				}
				res.ActiveHistory = append(res.ActiveHistory, total)
				if total == 0 {
					stop = true
				} else {
					res.Iterations++
				}
			})
			if stop {
				return
			}
			// --- Gather + apply: own partitions ---
			for pi := gr.PartStart; pi < gr.PartEnd; pi++ {
				clo, chi := ip.Chunks(pi)
				for c := clo; c < chi; c++ {
					lo, end := ip.Chunk[c], ip.Chunk[c+1]
					for i, d := range ip.Lanes(c) {
						for e := lo + int64(i); e < end; e += layout.PullLanes {
							m := ip.Idx[e]
							if m == msgSink {
								break
							}
							if !binValid[m] {
								continue
							}
							val := bins[m]
							if gotMsg[d] {
								acc[d] = prog.Combine(acc[d], val)
							} else {
								acc[d] = val
								gotMsg[d] = true
							}
						}
					}
				}
				part := hier.Partitions[pi]
				for v := int(part.VertexStart); v < int(part.VertexEnd); v++ {
					if gotMsg[v] {
						nv, changed := prog.Apply(graph.VertexID(v), values[v], acc[v])
						values[v] = nv
						nextActive[v] = changed
						acc[v] = id
						gotMsg[v] = false
					} else {
						nextActive[v] = false
					}
				}
			}
			bar.WaitLeader(func() {
				active, nextActive = nextActive, active
			})
		}
	})
	res.Values = values
	return res, nil
}
