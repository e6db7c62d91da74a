package algorithms

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"

	"hipa/internal/engines/common"
	"hipa/internal/graph"
	"hipa/internal/obs"
	"hipa/internal/par"
)

// TraversalConfig configures WCC, Hops and Reachable.
type TraversalConfig struct {
	// Threads is the number of worker threads (0 = GOMAXPROCS, at most one
	// per vertex). No output depends on it.
	Threads int
	// MaxIterations bounds the rounds; 0 runs until the frontier is empty,
	// which all three reach within n+1 rounds.
	MaxIterations int
}

// TraversalResult reports a traversal.
type TraversalResult[V uint32 | int32] struct {
	Values     []V
	Iterations int
	// ActiveHistory is the frontier size of each round, ending with a 0
	// when the frontier emptied before MaxIterations.
	ActiveHistory []int
}

// Unreachable is Hops' label for the vertices the source does not reach.
const Unreachable = int32(math.MaxInt32)

// BFSResult reports a breadth-first search.
type BFSResult struct {
	// Levels[v] is the BFS depth of v, or -1 if unreachable.
	Levels []int32
	// Parents[v] is the smallest ID among v's in-neighbours one level
	// shallower, the source itself for the source, and 0 for unreachable
	// vertices.
	Parents []graph.VertexID
	// Visited is the number of reached vertices.
	Visited int
}

// unvisited is the search state of a vertex no frontier edge has reached.
const unvisited = math.MaxUint64

// BFS runs a level-synchronous parallel breadth-first search from source
// (the paper's §6 extension) on the frontier edge map (traversal), so no
// partition hierarchy is built. A vertex's search state is one word, its
// level above its parent; every frontier edge u→v offers depth<<32 | u to
// v as an atomic minimum. Earlier levels are smaller words and unvisited
// is the largest, so the minimum claims an unvisited vertex and keeps, at
// its level, the smallest parent: levels and parents are a function of the
// graph alone.
func BFS(g *graph.Graph, source graph.VertexID, cfg Config) (*BFSResult, error) {
	if err := checkSource(g, source); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	t := newBFS(g, source, cfg.withDefaults(n).Threads)
	t.run(n+1, nil)
	return t.bfsResult(), nil
}

// Hops computes shortest hop counts from source along out-edges: BFS
// levels, with Unreachable for the vertices it does not reach.
func Hops(g *graph.Graph, source graph.VertexID, cfg TraversalConfig) (*TraversalResult[int32], error) {
	return bfsView(g, source, cfg, func(level int32) int32 {
		if level < 0 {
			return Unreachable
		}
		return level
	})
}

// Reachable returns forward-reachability flags from source: 1 where BFS
// reaches, 0 elsewhere.
func Reachable(g *graph.Graph, source graph.VertexID, cfg TraversalConfig) (*TraversalResult[uint32], error) {
	return bfsView(g, source, cfg, func(level int32) uint32 {
		if level < 0 {
			return 0
		}
		return 1
	})
}

// bfsView runs BFS for at most cfg's rounds and maps each level to a value.
func bfsView[V uint32 | int32](g *graph.Graph, source graph.VertexID, cfg TraversalConfig, value func(level int32) V) (*TraversalResult[V], error) {
	if err := checkSource(g, source); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	t := newBFS(g, source, cfg.threads(n))
	res := &TraversalResult[V]{Values: make([]V, n)}
	res.Iterations, res.ActiveHistory = t.run(cfg.rounds(n), &obs.Recorder{})
	for v, level := range t.bfsResult().Levels {
		res.Values[v] = value(level)
	}
	return res, nil
}

// WCC computes weakly connected component labels by synchronous min-label
// propagation over g's out- and in-edges (the in-CSR is built once and
// cached on g): every vertex starts with its own ID, and each round the
// vertices whose label fell in the previous one offer it to their
// neighbours. Each component ends labelled with its smallest vertex ID.
func WCC(g *graph.Graph, cfg TraversalConfig) (*TraversalResult[uint32], error) {
	n := g.NumVertices()
	if n == 0 {
		return nil, fmt.Errorf("algorithms: empty graph")
	}
	t := newWCC(g, cfg.threads(n))
	res := &TraversalResult[uint32]{Values: make([]uint32, n)}
	res.Iterations, res.ActiveHistory = t.run(cfg.rounds(n), &obs.Recorder{})
	for v, label := range t.state {
		res.Values[v] = uint32(label)
	}
	return res, nil
}

func checkSource(g *graph.Graph, source graph.VertexID) error {
	if n := g.NumVertices(); n == 0 {
		return fmt.Errorf("algorithms: empty graph")
	} else if int(source) >= n {
		return fmt.Errorf("algorithms: source %d out of range [0,%d)", source, n)
	}
	return nil
}

func (c TraversalConfig) threads(n int) int { return min(par.Workers(c.Threads), n) }

func (c TraversalConfig) rounds(n int) int {
	if c.MaxIterations == 0 {
		return n + 1
	}
	return c.MaxIterations
}

// traversal is a frontier edge map on the superstep driver, after GBBS's
// edgeMap (Dhulipala, Blelloch and Shun). Each round the scatter phase
// splits the frontier evenly over the threads. Every frontier vertex u
// offers a word along its out-edges as an atomic minimum on state, and a
// vertex whose word the round lowers for the first time joins the next
// frontier. Rebuild, serial between rounds, swaps the frontiers; an empty
// one ends the loop. A vertex joins the next frontier at most once a
// round, so both frontiers fit in n entries and a warm run allocates
// nothing.
type traversal struct {
	off     []int64
	adj     []graph.VertexID
	state   []uint64
	threads int
	// labels is WCC's, each vertex's label at the start of the round, which
	// it offers along the in-edges inOff/inAdj too; BFS leaves them nil
	// and offers the round's depth.
	labels []uint64
	inOff  []int64
	inAdj  []graph.VertexID
	depth  uint64
	// cur[:active] is the round's frontier; the scatter threads reserve
	// their claims' slots in next through tail.
	cur, next []graph.VertexID
	active    int
	tail      atomic.Int64
}

func newTraversal(g *graph.Graph, threads int) *traversal {
	n := g.NumVertices()
	return &traversal{off: g.OutOffsets(), adj: g.OutEdges(), state: make([]uint64, n), threads: threads,
		cur: make([]graph.VertexID, n), next: make([]graph.VertexID, n)}
}

func newBFS(g *graph.Graph, source graph.VertexID, threads int) *traversal {
	t := newTraversal(g, threads)
	t.seedBFS(source)
	return t
}

// seedBFS makes source the only visited vertex and the whole frontier.
func (t *traversal) seedBFS(source graph.VertexID) {
	for v := range t.state {
		t.state[v] = unvisited
	}
	t.state[source] = uint64(source)
	t.cur[0], t.active = source, 1
}

func newWCC(g *graph.Graph, threads int) *traversal {
	t := newTraversal(g, threads)
	g.BuildIn()
	t.inOff, t.inAdj = g.InCSR()
	t.labels = make([]uint64, len(t.state))
	t.seedWCC()
	return t
}

// seedWCC labels every vertex with its ID and puts them all in the frontier.
func (t *traversal) seedWCC() {
	for v := range t.state {
		t.state[v], t.labels[v], t.cur[v] = uint64(v), uint64(v), graph.VertexID(v)
	}
	t.active = len(t.state)
}

// run drives the traversal for at most rounds rounds and returns the
// rounds run and the frontier sizes rec recorded, with a trailing 0 when
// the frontier emptied before the cap. A nil rec records nothing.
func (t *traversal) run(rounds int, rec *obs.Recorder) (int, []int) {
	cfg := superstep(t.threads, rounds)
	cfg.Frontier, cfg.Rec = t, rec
	performed := common.RunSupersteps(cfg, t.kernels())
	var history []int
	for _, st := range rec.IterationStats() {
		history = append(history, int(st.ActiveVertices))
	}
	if rec != nil && t.active == 0 && performed < rounds {
		history = append(history, 0)
	}
	return performed, history
}

func (t *traversal) kernels() common.PhaseKernels {
	if t.labels != nil {
		return common.PhaseKernels{Scatter: t.wccScatter, Gather: t.adopt}
	}
	return common.PhaseKernels{StartIteration: func(it int) { t.depth = uint64(it + 1) }, Scatter: t.bfsScatter}
}

// share is thread tid's even share of vs.
func share(vs []graph.VertexID, tid, threads int) []graph.VertexID {
	return vs[len(vs)*tid/threads : len(vs)*(tid+1)/threads]
}

// bfsScatter is BFS's edge map over thread tid's share of the frontier:
// u offers depth<<32 | u, and a vertex joins the next frontier when it
// first leaves unvisited. It buffers its claims and reserves their slots in next 64 at a time (a
// slot a claim made BFS about 10% slower). It and wccScatter are two
// loops because a per-edge test for which one runs cost BFS as much.
func (t *traversal) bfsScatter(tid int) {
	var claimed [64]graph.VertexID
	k := 0
	for _, u := range share(t.cur[:t.active], tid, t.threads) {
		offer := t.depth<<32 | uint64(u)
		for _, v := range t.adj[t.off[u]:t.off[u+1]] {
			if offerMin(&t.state[v], offer, unvisited) {
				claimed[k] = v
				if k++; k == len(claimed) {
					t.flush(claimed[:])
					k = 0
				}
			}
		}
	}
	t.flush(claimed[:k])
}

// wccScatter is WCC's edge map, buffered as bfsScatter's: u offers its
// label along its out-edges and its in-edges, and a vertex joins the next
// frontier when the round first lowers its state below its label.
func (t *traversal) wccScatter(tid int) {
	var claimed [64]graph.VertexID
	k := 0
	for _, u := range share(t.cur[:t.active], tid, t.threads) {
		offer := t.labels[u]
		k = t.offerLabel(offer, t.adj[t.off[u]:t.off[u+1]], &claimed, k)
		k = t.offerLabel(offer, t.inAdj[t.inOff[u]:t.inOff[u+1]], &claimed, k)
	}
	t.flush(claimed[:k])
}

// offerLabel offers a label to each of vs, buffering the vertices it
// claims in claimed[k:], and returns the buffer's new length.
func (t *traversal) offerLabel(offer uint64, vs []graph.VertexID, claimed *[64]graph.VertexID, k int) int {
	for _, v := range vs {
		if offerMin(&t.state[v], offer, t.labels[v]) {
			claimed[k] = v
			if k++; k == len(claimed) {
				t.flush(claimed[:])
				k = 0
			}
		}
	}
	return k
}

// flush appends vs to the next frontier.
func (t *traversal) flush(vs []graph.VertexID) {
	end := int(t.tail.Add(int64(len(vs))))
	copy(t.next[end-len(vs):end], vs)
}

// adopt is WCC's gather: the vertices of thread tid's share of the next
// frontier take the labels the round lowered them to.
func (t *traversal) adopt(tid int) {
	for _, v := range share(t.next[:t.tail.Load()], tid, t.threads) {
		t.labels[v] = t.state[v]
	}
}

// offerMin lowers *p to offer when offer is smaller, and reports whether
// the lowered word was fresh.
func offerMin(p *uint64, offer, fresh uint64) bool {
	for s := atomic.LoadUint64(p); offer < s; s = atomic.LoadUint64(p) {
		if atomic.CompareAndSwapUint64(p, s, offer) {
			return s == fresh
		}
	}
	return false
}

// Stats implements common.Frontier.
func (t *traversal) Stats() common.FrontierStats {
	return common.FrontierStats{ActiveVertices: int64(t.active), TotalVertices: int64(len(t.state))}
}

// Rebuild implements common.Frontier: the round's claims become the
// frontier, and an empty one ends the loop.
func (t *traversal) Rebuild(int) (common.FrontierStats, bool) {
	t.cur, t.next = t.next, t.cur
	t.active = int(t.tail.Swap(0))
	return t.Stats(), t.active == 0
}

func (t *traversal) bfsResult() *BFSResult {
	n := len(t.state)
	out := &BFSResult{Levels: make([]int32, n), Parents: make([]graph.VertexID, n)}
	for v, s := range t.state {
		if s == unvisited {
			out.Levels[v] = -1
			continue
		}
		out.Levels[v], out.Parents[v] = int32(s>>32), graph.VertexID(s)
		out.Visited++
	}
	return out
}

// superstep configures the driver for threads tids run by at most
// GOMAXPROCS goroutines, the engines' default GoParallelism: goroutines
// beyond the cores only add wake-ups to every phase's barriers.
func superstep(threads, iterations int) common.SuperstepConfig {
	return common.SuperstepConfig{Threads: threads, Parallelism: runtime.GOMAXPROCS(0), Iterations: iterations}
}
