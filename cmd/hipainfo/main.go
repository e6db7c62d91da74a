// Command hipainfo reports graph statistics and the hierarchical
// partitioning a graph would receive on a machine: per-node partition/edge
// assignment, per-thread groups, intra/inter-edge locality, compression
// ratio, the resident size of the layout and its intra pull's padding, and
// the NUMA page placement of the attribute arrays.
//
// Usage:
//
//	hipainfo -graph g.bin [-machine skylake] [-divisor 1]
//	         [-partition 256K] [-threads 0] [-json]
//	         [-mutations m.txt]
//
// -mutations replays a mutation-stream file (the "+/-/commit" format of
// graph.ReadMutationBatches) against a versioned copy of the graph and adds
// the versioned-graph bookkeeping — version reached, overlay log size,
// compactions — to the report; the partitioning sections then describe the
// final version.
// -json emits the whole report as a single JSON object instead of text.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"hipa/internal/engines/common"
	"hipa/internal/gen"
	"hipa/internal/graph"
	"hipa/internal/layout"
	"hipa/internal/machine"
	"hipa/internal/memsim"
	"hipa/internal/partition"
)

// infoReport is the machine-readable form of everything hipainfo prints;
// -json emits it verbatim.
type infoReport struct {
	Graph        graph.Stats            `json:"graph"`
	SkewTop10    float64                `json:"skew_top10_edge_share"`
	Machine      string                 `json:"machine"`
	Kernels      string                 `json:"kernels"`
	Partitions   partitionsInfo         `json:"partitions"`
	Nodes        []nodeInfo             `json:"nodes"`
	Locality     partition.EdgeLocality `json:"locality"`
	Compression  compressionInfo        `json:"compression"`
	LayoutBytes  int64                  `json:"layout_bytes"`
	PullPadding  int64                  `json:"pull_padding"`
	PullPadShare float64                `json:"pull_padding_share"`
	RankPages    []int64                `json:"rank_pages_per_node"`
	RankBytes    int64                  `json:"rank_bytes"`
	Versioned    *graph.VersionedStats  `json:"versioned,omitempty"`
	MutationFile string                 `json:"mutation_file,omitempty"`
}

type partitionsInfo struct {
	Count           int     `json:"count"`
	Bytes           int     `json:"bytes"`
	VerticesEach    int     `json:"vertices_each"`
	NodeEdgeBalance float64 `json:"node_edge_balance"`
	GroupBalance    float64 `json:"group_edge_balance"`
}

type nodeInfo struct {
	Node       int   `json:"node"`
	PartStart  int   `json:"part_start"`
	PartEnd    int   `json:"part_end"`
	VertexLow  int   `json:"vertex_low"`
	VertexHigh int   `json:"vertex_high"`
	EdgeCount  int64 `json:"edge_count"`
}

type compressionInfo struct {
	InterEdges      int64   `json:"inter_edges"`
	Messages        int64   `json:"messages"`
	EdgesPerMessage float64 `json:"edges_per_message"`
	Blocks          int     `json:"blocks"`
	BinBytes        int64   `json:"bin_bytes"`
}

func main() {
	var (
		graphPath = flag.String("graph", "", "binary HGR1 graph file (or use -dataset)")
		dataset   = flag.String("dataset", "", "generate a catalog analog instead of loading")
		divisor   = flag.Int("divisor", gen.DefaultDivisor, "scale divisor")
		preset    = flag.String("machine", "skylake", "machine preset")
		partSize  = flag.String("partition", "", "partition size (default 256K scaled)")
		threads   = flag.Int("threads", 0, "threads (0 = all logical cores)")
		mutPath   = flag.String("mutations", "", "replay a mutation-stream file against a versioned copy and report the final version")
		jsonOut   = flag.Bool("json", false, "emit the report as JSON instead of text")
	)
	flag.Parse()

	var g *graph.Graph
	var err error
	switch {
	case *graphPath != "":
		g, err = graph.LoadBinary(*graphPath)
	case *dataset != "":
		g, err = gen.GenerateByName(*dataset, *divisor)
	default:
		fail("need -graph or -dataset")
	}
	if err != nil {
		fail(err.Error())
	}

	mk, ok := machine.Presets[*preset]
	if !ok {
		fail("unknown machine preset " + *preset)
	}
	m := mk()
	if *dataset != "" {
		m = machine.Scaled(m, *divisor)
	}
	pb := 256 << 10
	if *dataset != "" {
		pb /= *divisor
		if pb < 16 {
			pb = 16
		}
	}
	if *partSize != "" {
		if pb, err = parseSize(*partSize); err != nil {
			fail(err.Error())
		}
	}
	th := *threads
	if th == 0 {
		th = m.LogicalCores()
	}

	rep := infoReport{Machine: m.String(), Kernels: common.KernelSet()}

	// Mutation replay first: the partitioning sections below then describe
	// the graph's final version, which is what an incremental re-rank would
	// partition.
	if *mutPath != "" {
		f, err := os.Open(*mutPath)
		if err != nil {
			fail(err.Error())
		}
		batches, err := graph.ReadMutationBatches(f)
		f.Close()
		if err != nil {
			fail(err.Error())
		}
		vg := graph.NewVersioned(g)
		for i, b := range batches {
			if _, err := vg.ApplyBatch(b); err != nil {
				fail(fmt.Sprintf("%s: batch %d: %v", *mutPath, i+1, err))
			}
		}
		vs := vg.Stats()
		rep.Versioned = &vs
		rep.MutationFile = *mutPath
		if g, err = vg.GraphAt(vg.Version()); err != nil {
			fail(err.Error())
		}
	}

	rep.Graph = graph.ComputeStats(g)
	rep.SkewTop10 = gen.DegreeSkew(g, 0.10)

	h, err := partition.Build(g, partition.Config{
		PartitionBytes: pb,
		BytesPerVertex: 4,
		NumNodes:       m.NUMANodes,
		GroupsPerNode:  th / m.NUMANodes,
	})
	if err != nil {
		fail(err.Error())
	}
	rep.Partitions = partitionsInfo{
		Count:           h.NumPartitions(),
		Bytes:           pb,
		VerticesEach:    h.VerticesPerPartition,
		NodeEdgeBalance: h.EdgeBalance(),
		GroupBalance:    h.GroupEdgeBalance(),
	}
	for _, na := range h.Nodes {
		rep.Nodes = append(rep.Nodes, nodeInfo{
			Node: na.Node, PartStart: na.PartStart, PartEnd: na.PartEnd,
			VertexLow: int(na.VertexLow), VertexHigh: int(na.VertexHigh), EdgeCount: na.EdgeCount,
		})
	}

	rep.Locality = partition.ComputeEdgeLocality(g, h)

	lay, err := layout.Build(g, h, true)
	if err != nil {
		fail(err.Error())
	}
	ratio := 1.0
	if lay.NumMessages() > 0 {
		ratio = float64(lay.InterEdges) / float64(lay.NumMessages())
	}
	rep.Compression = compressionInfo{
		InterEdges:      lay.InterEdges,
		Messages:        lay.NumMessages(),
		EdgesPerMessage: ratio,
		Blocks:          len(lay.Blocks),
		BinBytes:        lay.BinBytes(),
	}
	rep.LayoutBytes = lay.Bytes()
	rep.PullPadding = lay.PullPadding()
	if lay.IntraEdges > 0 {
		rep.PullPadShare = float64(rep.PullPadding) / float64(lay.IntraEdges)
	}

	// NUMA placement of the rank array under HiPa's sliced policy.
	space := memsim.NewSpace(m)
	ranks := space.MustAlloc("ranks", int64(g.NumVertices())*4, memsim.Sliced{Bounds: h.RankBoundsBytes(4)})
	rep.RankPages = ranks.PagesOnNode(m.NUMANodes)
	rep.RankBytes = ranks.Size

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fail(err.Error())
		}
		return
	}

	fmt.Printf("graph      : %d vertices, %d edges, avg out-degree %.2f, max %d, %d dangling\n",
		rep.Graph.NumVertices, rep.Graph.NumEdges, rep.Graph.AvgOutDegree, rep.Graph.MaxOutDegree, rep.Graph.Dangling)
	fmt.Printf("skew       : top 10%% of vertices own %.1f%% of out-edges\n", 100*rep.SkewTop10)
	fmt.Printf("machine    : %s\n", m)
	fmt.Printf("kernels    : %s (intra pull and rank update)\n", rep.Kernels)
	if vs := rep.Versioned; vs != nil {
		fmt.Printf("versioned  : v%d after %d batches (%d mutations); %d -> %d edges; snapshot v%d, %d compactions\n",
			vs.Version, vs.LogBatches, vs.LogMutations, vs.SnapshotEdges, vs.Edges, vs.SnapshotVersion, vs.Compactions)
	}
	fmt.Printf("partitions : %d of %dB (%d vertices each); node edge balance %.3f, group balance %.3f\n",
		rep.Partitions.Count, pb, rep.Partitions.VerticesEach, rep.Partitions.NodeEdgeBalance, rep.Partitions.GroupBalance)
	for _, na := range rep.Nodes {
		fmt.Printf("  node %d   : partitions [%d,%d) vertices [%d,%d) edges %d\n",
			na.Node, na.PartStart, na.PartEnd, na.VertexLow, na.VertexHigh, na.EdgeCount)
	}
	fmt.Printf("locality   : %d intra / %d inter edges (%.0f / %.0f per partition)\n",
		rep.Locality.IntraEdges, rep.Locality.InterEdges, rep.Locality.IntraPerPartition, rep.Locality.InterPerPartition)
	fmt.Printf("compression: %d inter-edges -> %d messages (%.2f edges/message, %d blocks, bin %dB)\n",
		rep.Compression.InterEdges, rep.Compression.Messages, rep.Compression.EdgesPerMessage,
		rep.Compression.Blocks, rep.Compression.BinBytes)
	fmt.Printf("layout     : %dB resident (blocks, messages, destinations, intra push CSR and pull)\n", rep.LayoutBytes)
	fmt.Printf("intra pull : %d padding entries (%.1f%% of %d intra edges)\n",
		rep.PullPadding, 100*rep.PullPadShare, rep.Locality.IntraEdges)
	fmt.Printf("placement  : rank array %dB across %v pages per node (sliced by partition ownership)\n",
		rep.RankBytes, rep.RankPages)
}

func parseSize(s string) (int, error) {
	s = strings.ToUpper(strings.TrimSpace(s))
	mult := 1
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return n * mult, nil
}

func fail(msg string) {
	fmt.Fprintln(os.Stderr, "hipainfo:", msg)
	os.Exit(1)
}
