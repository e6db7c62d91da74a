// Package partition implements HiPa's hierarchical partitioning (paper §3):
//
//  1. The vertex set is cut into cache-able partitions of fixed vertex count
//     |P| = partitionBytes / bytesPerVertex, preserving vertex order.
//  2. NUMA-aware level (§3.1, Eq. 2–3): whole partitions are assigned to
//     NUMA nodes so that every node holds ≈ |E|/N out-edges; vertex counts
//     per node are therefore multiples of |P| (the last node takes the
//     leftovers).
//  3. Cache-aware level (§3.2, Eq. 4, Fig. 2): inside each node, the node's
//     partitions are split into one contiguous group per thread with ≈
//     |Ei|/C edges each (the loosened condition Σ D(v) >= |Ei|/C applies to
//     the last group).
//
// The result carries the 2-level lookup table of Fig. 3 (thread → partition
// range → vertex range) and the intra-/inter-edge statistics of Table 1.
package partition

import (
	"fmt"

	"hipa/internal/graph"
	"hipa/internal/par"
)

// Config parameterises hierarchical partitioning.
type Config struct {
	// PartitionBytes is the cache-able partition size (the paper's tuned
	// value is 256KB on Skylake, 128KB on Haswell).
	PartitionBytes int
	// BytesPerVertex is the size of one vertex's state (4 in the paper).
	BytesPerVertex int
	// NumNodes is the number of NUMA nodes to partition across.
	NumNodes int
	// GroupsPerNode is the number of thread groups per node (one per worker
	// thread on that node). 0 means one group holding everything.
	GroupsPerNode int
	// VertexBalanced switches the NUMA level from edge-balanced (Eq. 2) to
	// naive |V|/N vertex-balanced assignment — the strawman the paper
	// rejects for skewed graphs (§3.1). Used by the ablation benchmarks.
	VertexBalanced bool
}

// Partition is one cache-able vertex range [VertexStart, VertexEnd).
type Partition struct {
	ID          int
	VertexStart graph.VertexID
	VertexEnd   graph.VertexID
	// EdgeCount is the number of out-edges of the partition's vertices.
	EdgeCount int64
}

// Vertices returns the number of vertices in the partition.
func (p Partition) Vertices() int { return int(p.VertexEnd - p.VertexStart) }

// NodeAssignment records the partitions owned by one NUMA node.
type NodeAssignment struct {
	Node       int
	PartStart  int // first partition ID (inclusive)
	PartEnd    int // last partition ID (exclusive)
	EdgeCount  int64
	VertexLow  graph.VertexID
	VertexHigh graph.VertexID
}

// Partitions returns the number of partitions on this node (n_i in Eq. 3).
func (n NodeAssignment) Partitions() int { return n.PartEnd - n.PartStart }

// Group is one thread's set of partitions (m_j consecutive partitions on a
// node, Eq. 4).
type Group struct {
	Node        int
	IndexInNode int // j within the node, 0-based
	ThreadID    int // global thread index across nodes
	PartStart   int
	PartEnd     int
	EdgeCount   int64
}

// Partitions returns m_j, the number of partitions in the group.
func (g Group) Partitions() int { return g.PartEnd - g.PartStart }

// Hierarchy is the full two-level partitioning result.
type Hierarchy struct {
	Config      Config
	NumVertices int
	NumEdges    int64
	// VerticesPerPartition is |P| (Eq. 3).
	VerticesPerPartition int
	Partitions           []Partition
	Nodes                []NodeAssignment
	Groups               []Group
}

// Build computes the hierarchical partitioning of g under cfg with the
// default parallelism. The graph's out-degrees drive the edge balancing,
// matching the paper's choice ("the out-edges are selected", §3.1).
func Build(g *graph.Graph, cfg Config) (*Hierarchy, error) {
	return BuildWorkers(g, cfg, 0)
}

// BuildWorkers is Build with an explicit worker count (positive = that many
// workers, 0 = all cores, negative = serial). The hierarchy is identical at
// any worker count: only the cache-partition level (a per-partition scan of
// the offset array) is parallel; the node and group levels are sequential
// scans whose cost is proportional to the partition count.
func BuildWorkers(g *graph.Graph, cfg Config, workers int) (*Hierarchy, error) {
	if cfg.PartitionBytes <= 0 {
		return nil, fmt.Errorf("partition: PartitionBytes must be positive, got %d", cfg.PartitionBytes)
	}
	if cfg.BytesPerVertex <= 0 {
		return nil, fmt.Errorf("partition: BytesPerVertex must be positive, got %d", cfg.BytesPerVertex)
	}
	if cfg.NumNodes < 1 {
		return nil, fmt.Errorf("partition: NumNodes must be >= 1, got %d", cfg.NumNodes)
	}
	if cfg.GroupsPerNode < 0 {
		return nil, fmt.Errorf("partition: GroupsPerNode must be >= 0, got %d", cfg.GroupsPerNode)
	}
	perPart := cfg.PartitionBytes / cfg.BytesPerVertex
	if perPart < 1 {
		return nil, fmt.Errorf("partition: partition of %dB holds no %dB vertices", cfg.PartitionBytes, cfg.BytesPerVertex)
	}
	n := g.NumVertices()
	if n == 0 {
		return nil, fmt.Errorf("partition: empty graph")
	}

	h := &Hierarchy{
		Config:               cfg,
		NumVertices:          n,
		NumEdges:             g.NumEdges(),
		VerticesPerPartition: perPart,
	}

	// Level 0: fixed-size cache-able partitions preserving vertex order.
	// Each entry depends only on its own index, so the loop is parallel with
	// disjoint writes.
	numParts := (n + perPart - 1) / perPart
	h.Partitions = make([]Partition, numParts)
	off := g.OutOffsets()
	par.Blocks(par.Fit(par.Workers(workers), int64(numParts)), numParts, func(_, plo, phi int) {
		for p := plo; p < phi; p++ {
			lo := p * perPart
			hi := min(lo+perPart, n)
			h.Partitions[p] = Partition{
				ID:          p,
				VertexStart: graph.VertexID(lo),
				VertexEnd:   graph.VertexID(hi),
				EdgeCount:   off[hi] - off[lo],
			}
		}
	})

	// Level 1: NUMA assignment of whole partitions.
	h.Nodes = assignNodes(h.Partitions, cfg, g.NumEdges(), n)

	// Level 2: per-thread groups inside each node.
	if cfg.GroupsPerNode > 0 {
		h.Groups = assignGroups(h.Partitions, h.Nodes, cfg.GroupsPerNode)
	} else {
		for _, na := range h.Nodes {
			h.Groups = append(h.Groups, Group{
				Node: na.Node, IndexInNode: 0, ThreadID: na.Node,
				PartStart: na.PartStart, PartEnd: na.PartEnd, EdgeCount: na.EdgeCount,
			})
		}
	}
	return h, nil
}

// assignNodes distributes whole partitions to NUMA nodes so each node gets
// ≈ |E|/N edges (Eq. 2–3), or ≈ |V|/N vertices when cfg.VertexBalanced.
// The last node absorbs the leftovers (§3.1).
func assignNodes(parts []Partition, cfg Config, totalEdges int64, totalVertices int) []NodeAssignment {
	nn := cfg.NumNodes
	out := make([]NodeAssignment, 0, nn)
	cur := 0
	var cumEdges int64
	var cumVerts int64
	for node := 0; node < nn; node++ {
		start := cur
		var edges int64
		if node == nn-1 {
			// Last node: leftovers.
			for ; cur < len(parts); cur++ {
				edges += parts[cur].EdgeCount
			}
		} else if cfg.VertexBalanced {
			target := int64(totalVertices) * int64(node+1) / int64(nn)
			for cur < len(parts) && cumVerts < target {
				cumVerts += int64(parts[cur].Vertices())
				edges += parts[cur].EdgeCount
				cur++
			}
		} else {
			target := totalEdges * int64(node+1) / int64(nn)
			for cur < len(parts) && cumEdges < target {
				cumEdges += parts[cur].EdgeCount
				edges += parts[cur].EdgeCount
				cur++
			}
		}
		na := NodeAssignment{Node: node, PartStart: start, PartEnd: cur, EdgeCount: edges}
		if start < cur {
			na.VertexLow = parts[start].VertexStart
			na.VertexHigh = parts[cur-1].VertexEnd
		} else if len(parts) > 0 {
			// Empty node: zero-width range at the current position.
			pos := parts[len(parts)-1].VertexEnd
			if cur < len(parts) {
				pos = parts[cur].VertexStart
			}
			na.VertexLow, na.VertexHigh = pos, pos
		}
		out = append(out, na)
	}
	return out
}

// assignGroups splits each node's partitions into groupsPerNode contiguous
// groups of ≈ equal edge counts (Eq. 4 with the loosening of §3.2).
func assignGroups(parts []Partition, nodes []NodeAssignment, groupsPerNode int) []Group {
	var out []Group
	thread := 0
	for _, na := range nodes {
		cur := na.PartStart
		var cumEdges int64
		for j := 0; j < groupsPerNode; j++ {
			start := cur
			var edges int64
			if j == groupsPerNode-1 {
				for ; cur < na.PartEnd; cur++ {
					edges += parts[cur].EdgeCount
				}
			} else {
				target := na.EdgeCount * int64(j+1) / int64(groupsPerNode)
				for cur < na.PartEnd && cumEdges < target {
					cumEdges += parts[cur].EdgeCount
					edges += parts[cur].EdgeCount
					cur++
				}
			}
			out = append(out, Group{
				Node: na.Node, IndexInNode: j, ThreadID: thread,
				PartStart: start, PartEnd: cur, EdgeCount: edges,
			})
			thread++
		}
	}
	return out
}

// Regroup returns a copy of h with the cache-aware group level (level 2)
// recomputed for groupsPerNode thread groups per node, sharing the partition
// and node levels with h — they depend only on the partition size and the
// node count, not on the thread count, which is what makes a node-level
// Hierarchy reusable across thread-count sweeps. The shared levels must be
// treated as immutable by the caller. groupsPerNode 0 means one group per
// node, as in Build.
func Regroup(h *Hierarchy, groupsPerNode int) *Hierarchy {
	nh := *h
	nh.Config.GroupsPerNode = groupsPerNode
	nh.Groups = nil
	if groupsPerNode > 0 {
		nh.Groups = assignGroups(h.Partitions, h.Nodes, groupsPerNode)
	} else {
		for _, na := range h.Nodes {
			nh.Groups = append(nh.Groups, Group{
				Node: na.Node, IndexInNode: 0, ThreadID: na.Node,
				PartStart: na.PartStart, PartEnd: na.PartEnd, EdgeCount: na.EdgeCount,
			})
		}
	}
	return &nh
}

// NumPartitions returns the total partition count.
func (h *Hierarchy) NumPartitions() int { return len(h.Partitions) }

// PartitionOfVertex returns the partition ID containing v. O(1): partitions
// are fixed-size vertex ranges.
func (h *Hierarchy) PartitionOfVertex(v graph.VertexID) int {
	return int(v) / h.VerticesPerPartition
}

// NodeOfVertex returns the NUMA node owning v's partition.
func (h *Hierarchy) NodeOfVertex(v graph.VertexID) int {
	return h.NodeOfPartition(h.PartitionOfVertex(v))
}

// NodeOfPartition returns the NUMA node owning partition p.
func (h *Hierarchy) NodeOfPartition(p int) int {
	for _, na := range h.Nodes {
		if p >= na.PartStart && p < na.PartEnd {
			return na.Node
		}
	}
	panic(fmt.Sprintf("partition: partition %d not assigned to any node", p))
}

// GroupOfPartition returns the group (thread) owning partition p.
func (h *Hierarchy) GroupOfPartition(p int) *Group {
	for i := range h.Groups {
		gr := &h.Groups[i]
		if p >= gr.PartStart && p < gr.PartEnd {
			return gr
		}
	}
	panic(fmt.Sprintf("partition: partition %d not assigned to any group", p))
}

// ThreadOfVertex returns the global thread ID whose group owns v.
func (h *Hierarchy) ThreadOfVertex(v graph.VertexID) int {
	return h.GroupOfPartition(h.PartitionOfVertex(v)).ThreadID
}

// RankBoundsBytes returns, for each node in order, the exclusive end byte
// offset of the node's slice of a per-vertex attribute array with the given
// element size. This feeds memsim.Sliced so attribute pages land on the node
// owning the corresponding vertices (§3.4's contiguous virtual addressing).
func (h *Hierarchy) RankBoundsBytes(elemBytes int) []int64 {
	out := make([]int64, len(h.Nodes))
	for i, na := range h.Nodes {
		out[i] = int64(na.VertexHigh) * int64(elemBytes)
	}
	// Ensure the final bound covers the whole array (last node's leftovers).
	out[len(out)-1] = int64(h.NumVertices) * int64(elemBytes)
	return out
}

// Validate checks the hierarchical-partitioning invariants (disjoint
// order-preserving cover, per-level edge accounting). Used heavily by tests.
func (h *Hierarchy) Validate() error {
	// Partitions cover [0, n) in order without gaps.
	want := graph.VertexID(0)
	var edgeSum int64
	for i, p := range h.Partitions {
		if p.VertexStart != want {
			return fmt.Errorf("partition %d starts at %d, want %d", i, p.VertexStart, want)
		}
		if p.VertexEnd <= p.VertexStart {
			return fmt.Errorf("partition %d empty or inverted", i)
		}
		if i < len(h.Partitions)-1 && p.Vertices() != h.VerticesPerPartition {
			return fmt.Errorf("partition %d has %d vertices, want %d", i, p.Vertices(), h.VerticesPerPartition)
		}
		want = p.VertexEnd
		edgeSum += p.EdgeCount
	}
	if int(want) != h.NumVertices {
		return fmt.Errorf("partitions cover %d vertices, want %d", want, h.NumVertices)
	}
	if edgeSum != h.NumEdges {
		return fmt.Errorf("partition edges sum to %d, want %d", edgeSum, h.NumEdges)
	}
	// Nodes cover partitions contiguously.
	cur := 0
	var nodeEdges int64
	for i, na := range h.Nodes {
		if na.PartStart != cur {
			return fmt.Errorf("node %d starts at partition %d, want %d", i, na.PartStart, cur)
		}
		if na.PartEnd < na.PartStart {
			return fmt.Errorf("node %d inverted", i)
		}
		cur = na.PartEnd
		nodeEdges += na.EdgeCount
	}
	if cur != len(h.Partitions) {
		return fmt.Errorf("nodes cover %d partitions, want %d", cur, len(h.Partitions))
	}
	if nodeEdges != h.NumEdges {
		return fmt.Errorf("node edges sum to %d, want %d", nodeEdges, h.NumEdges)
	}
	// Groups cover each node's partitions contiguously.
	gi := 0
	var groupEdges int64
	for _, na := range h.Nodes {
		cur := na.PartStart
		for gi < len(h.Groups) && h.Groups[gi].Node == na.Node {
			gr := h.Groups[gi]
			if gr.PartStart != cur {
				return fmt.Errorf("group %d starts at %d, want %d", gi, gr.PartStart, cur)
			}
			cur = gr.PartEnd
			groupEdges += gr.EdgeCount
			gi++
		}
		if cur != na.PartEnd {
			return fmt.Errorf("groups on node %d cover to %d, want %d", na.Node, cur, na.PartEnd)
		}
	}
	if gi != len(h.Groups) {
		return fmt.Errorf("group list has trailing entries")
	}
	if groupEdges != h.NumEdges {
		return fmt.Errorf("group edges sum to %d, want %d", groupEdges, h.NumEdges)
	}
	return nil
}

// EdgeBalance returns max/mean node edge counts, a workload-imbalance
// metric (1.0 = perfect balance).
func (h *Hierarchy) EdgeBalance() float64 {
	if len(h.Nodes) == 0 || h.NumEdges == 0 {
		return 1
	}
	mean := float64(h.NumEdges) / float64(len(h.Nodes))
	var max float64
	for _, na := range h.Nodes {
		if e := float64(na.EdgeCount); e > max {
			max = e
		}
	}
	return max / mean
}

// GroupEdgeBalance returns max/mean group edge counts across all groups.
func (h *Hierarchy) GroupEdgeBalance() float64 {
	if len(h.Groups) == 0 || h.NumEdges == 0 {
		return 1
	}
	mean := float64(h.NumEdges) / float64(len(h.Groups))
	var max float64
	for _, gr := range h.Groups {
		if e := float64(gr.EdgeCount); e > max {
			max = e
		}
	}
	return max / mean
}
