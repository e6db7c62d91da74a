package common

import (
	"fmt"
	"time"

	"hipa/internal/execbuf"
	"hipa/internal/graph"
	"hipa/internal/layout"
	"hipa/internal/machine"
	"hipa/internal/partition"
)

// PrepKind distinguishes the two preprocessing artifact families.
type PrepKind uint8

const (
	// PrepPartition artifacts carry a partition hierarchy + compressed
	// layout (HiPa, p-PR, GPOP).
	PrepPartition PrepKind = iota + 1
	// PrepVertex artifacts carry the transpose (CSC) and degree arrays
	// (v-PR, Polymer).
	PrepVertex
)

// PrepKey identifies one preprocessing artifact by graph content and the
// complete set of machine and option fields that reach the build: partition
// size (itself cache-geometry-derived when defaulted), bytes per vertex,
// compression, balance flags, and the NUMA node count of the node-level
// split. Thread count is deliberately absent: the thread-dependent group
// stage is recomputed cheaply on top of the cached node-level split
// (partition.Regroup), so all thread counts of a sweep share one artifact.
// No other machine field shapes the artifact, so structurally identical
// artifacts legitimately share entries across machines (Table 3 builds one
// artifact per partition size, not per microarchitecture).
type PrepKey struct {
	GraphFP        uint64
	Kind           PrepKind
	PartitionBytes int  // 0 for vertex artifacts
	BytesPerVertex int  // rank bytes per vertex in the partitioner; 0 for vertex artifacts
	Compress       bool // inter-edge compression (partition artifacts)
	VertexBalanced bool // NUMA-level vertex balancing ablation
	Nodes          int  // NUMA node count of the node-level split; 0 for vertex artifacts
}

// PartArtifact is the immutable preprocessing payload of the
// partition-centric engines: the node-level hierarchy (groups are
// thread-dependent and recomputed per Exec), the compressed message layout,
// and the 1/outdeg array. All fields are shared read-only across Execs.
type PartArtifact struct {
	Hier *partition.Hierarchy
	Lay  *layout.Layout
	Inv  []float32
}

// BuildPartArtifact builds a partition-centric payload: the hierarchy per
// cfg, the message layout (compressed unless o.NoCompress), and the
// 1/outdeg array, each stage timed and traced on lane. Errors carry no
// engine prefix; the caller adds its own.
func BuildPartArtifact(g *graph.Graph, cfg partition.Config, o Options, lane int) (*PartArtifact, error) {
	start := time.Now()
	hier, err := partition.BuildWorkers(g, cfg, o.PrepParallelism)
	EndPrepStage(o.Obs, lane, SpanPrepPartition, start)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	lay, err := layout.BuildWorkers(g, hier, !o.NoCompress, o.PrepParallelism)
	EndPrepStage(o.Obs, lane, SpanPrepLayout, start)
	if err != nil {
		return nil, err
	}
	return &PartArtifact{Hier: hier, Lay: lay, Inv: InvOutDegreesWorkers(g, o.PrepParallelism)}, nil
}

// VertexArtifact is the immutable preprocessing payload of the
// vertex-centric engines. The transpose itself lives on the Graph (BuildIn);
// the artifact carries the 1/outdeg array.
type VertexArtifact struct {
	Inv []float32
}

// Prepared is an engine's preprocessing artifact: everything that depends
// only on the graph and the prep-relevant options (partition size,
// compression, balance flags, node count), built once by Prepare and reused
// by any number of Exec calls — including concurrent ones; the artifact is
// immutable after Prepare returns.
type Prepared struct {
	engine  string
	family  string
	key     PrepKey
	g       *graph.Graph
	machine *machine.Machine
	part    *PartArtifact
	vert    *VertexArtifact
	arenas  execbuf.Pool

	// PrepSeconds is the real elapsed time of the Prepare call that produced
	// this value — the full cold build, or a near-zero cache fetch.
	PrepSeconds float64
	// BuildSeconds is the artifact's cold construction cost, preserved
	// across cache hits (the honest §4.2 overhead).
	BuildSeconds float64
	// FromCache reports whether the artifact was served from a PrepCache
	// rather than built by this call.
	FromCache bool
	// Incremental reports that this artifact was produced by Advance's patch
	// path (partition.Advance + layout.Patch) rather than a cold build —
	// false for Prepare results and for Advance's budget-violation fallback.
	Incremental bool
}

// Engine returns the name of the engine that prepared the artifact; Exec
// rejects artifacts prepared by a different engine (unless it accepts the
// artifact's Family).
func (p *Prepared) Engine() string { return p.engine }

// Family returns the name of the builder family the artifact came from
// ("" when its engine shares its builder with no other): artifacts of one
// family are byte-identical whatever engine stamped them, so an engine that
// runs on the family's layout can accept any of them (CheckExecFamily).
func (p *Prepared) Family() string { return p.family }

// Graph returns the graph the artifact was built for.
func (p *Prepared) Graph() *graph.Graph { return p.g }

// Machine returns the machine the artifact was prepared against; Exec uses
// it when Options.Machine is nil.
func (p *Prepared) Machine() *machine.Machine { return p.machine }

// Key returns the artifact's cache identity.
func (p *Prepared) Key() PrepKey { return p.key }

// AcquireArena draws an Exec scratch arena from the artifact's pool — warm
// when a previous Exec against this artifact returned one, fresh otherwise.
// Pair with ReleaseArena when the Exec no longer touches arena buffers.
func (p *Prepared) AcquireArena() *execbuf.Arena { return p.arenas.Get() }

// ReleaseArena returns an arena to the artifact's pool for the next Exec.
func (p *Prepared) ReleaseArena(a *execbuf.Arena) { p.arenas.Put(a) }

// SetArenaCap bounds how many warm arenas the artifact's pool keeps (see
// execbuf.Pool.SetCap; n <= 0 restores the GOMAXPROCS default). A caller
// that knows how many Execs can hold an arena at once sizes it to that, so
// steady-state Execs never drop an arena and create it again.
func (p *Prepared) SetArenaCap(n int) { p.arenas.SetCap(n) }

// ArenaCap reports the bound SetArenaCap set, or the default.
func (p *Prepared) ArenaCap() int { return p.arenas.Cap() }

// Follow makes p the next version of prev for arena reuse: until p's first
// Exec, an empty p draws a warm arena from prev's pool (execbuf.Pool.Follow)
// while prev keeps its others for the Execs still running on it. Advance
// does this itself; a caller that rebuilds the next version cold does it.
func (p *Prepared) Follow(prev *Prepared) { p.arenas.Follow(&prev.arenas) }

// ArenaStats reports the artifact's arena-pool traffic: Created counts cold
// arenas (peak Exec concurrency), Reused counts warm acquisitions.
func (p *Prepared) ArenaStats() execbuf.PoolStats { return p.arenas.Stats() }

// Supersede retires p in favour of next, the artifact now published in its
// place: p's warm arenas move to next's pool, and an arena an Exec still
// holds on p is handed to next when it is released. Call it at the swap,
// not after Advance alone — an advanced artifact that is never published
// (a reload failing in a later batch) must leave p's pool serving p.
func (p *Prepared) Supersede(next *Prepared) { p.arenas.Supersede(&next.arenas) }

// Partition returns the partition-centric payload, or nil for a vertex
// artifact.
func (p *Prepared) Partition() *PartArtifact { return p.part }

// Vertex returns the vertex-centric payload, or nil for a partition
// artifact.
func (p *Prepared) Vertex() *VertexArtifact { return p.vert }

// CheckExec validates that the artifact can back an Exec for the named
// engine with the given kind. Shared by all engine Exec implementations.
func (p *Prepared) CheckExec(engine string, kind PrepKind) error {
	return p.CheckExecFamily(engine, "", kind)
}

// CheckExecFamily is CheckExec for an engine that also runs on artifacts
// other engines of family built: the engine stamp may differ when the
// artifact's Family is family (a non-empty name).
func (p *Prepared) CheckExecFamily(engine, family string, kind PrepKind) error {
	if p == nil {
		return fmt.Errorf("%s: Exec needs a non-nil Prepared artifact", engine)
	}
	if p.engine != engine && (family == "" || p.family != family) {
		return fmt.Errorf("%s: artifact was prepared by %s", engine, p.engine)
	}
	if p.key.Kind != kind || (kind == PrepPartition && p.part == nil) || (kind == PrepVertex && p.vert == nil) {
		return fmt.Errorf("%s: artifact carries no payload of the required kind", engine)
	}
	return nil
}

// MakePrepared assembles a Prepared artifact for an engine's Prepare
// implementation: it stamps the artifact with the engine and builder family
// names ("" = none) and key with the graph fingerprint (timed and traced on
// lane, the runner lane of the engine's other prep stages), then builds or
// fetches the payload from o.PrepCache, whose own instruments count the
// hits and misses. ensure, when non-nil, runs after the payload is
// available even on a cache hit — vertex engines use it to guarantee this
// graph pointer's CSC exists when the payload was built from a
// content-identical but distinct Graph.
func MakePrepared(engine, family string, g *graph.Graph, m *machine.Machine, o Options, lane int, key PrepKey, build func() (any, error), ensure func()) (*Prepared, error) {
	start := time.Now()
	key.GraphFP = g.FingerprintWorkers(o.PrepParallelism)
	EndPrepStage(o.Obs, lane, SpanPrepFingerprint, start)
	payload, buildSeconds, fromCache, err := o.PrepCache.getOrBuild(key, build)
	if err != nil {
		return nil, err
	}
	if ensure != nil {
		ensure()
	}
	p := &Prepared{
		engine: engine, family: family, key: key, g: g, machine: m,
		BuildSeconds: buildSeconds,
		FromCache:    fromCache,
	}
	switch a := payload.(type) {
	case *PartArtifact:
		p.part = a
	case *VertexArtifact:
		p.vert = a
	default:
		return nil, fmt.Errorf("%s: unknown prep payload %T", engine, payload)
	}
	p.PrepSeconds = time.Since(start).Seconds()
	return p, nil
}

// advanceFallbackFactor bounds the patch path: a touched partition whose
// edge count more than doubled (plus a small absolute slack for tiny
// partitions) has effectively been rewritten, so splicing buys nothing over
// rebuilding — Advance falls back to a cold parallel build. The rule is
// relative to each partition's own previous size, so power-law hub
// partitions never trip it on proportionate growth.
const (
	advanceFallbackFactor = 2
	advanceFallbackSlack  = 64
)

// Advance derives the artifact for the next graph version from this one by
// patching only what the mutation batch touched: the 1/outdeg entries of
// the mutated sources, the touched partitions' edge counts and layout rows
// (partition.Advance + layout.Patch — proven bit-identical to a cold
// build), and nothing else. The new artifact's arena pool follows this
// one's (execbuf.Pool.Follow): its first Exec draws a warm arena from here,
// so a dynamic replay keeps recycling one set of Exec buffers across
// versions, while this artifact keeps its other arenas for the Execs still
// running on it. When a touched partition grew past the fallback budget the
// whole prep is rebuilt cold (Incremental stays false); either way the
// result is bit-identical to Prepare on d.Next, with PrepSeconds the cost
// of this call and BuildSeconds carried over as the honest cold baseline.
//
// The receiver must be the artifact of d.Prev. The new key's GraphFP is
// d.Fingerprint — the versioned chain fingerprint — so PrepCache entries of
// distinct versions never collide.
func (p *Prepared) Advance(d *graph.Delta, o Options) (*Prepared, error) {
	if p == nil {
		return nil, fmt.Errorf("engines: Advance on a nil Prepared artifact")
	}
	if d == nil || d.Prev == nil || d.Next == nil {
		return nil, fmt.Errorf("%s: Advance needs a complete graph delta", p.engine)
	}
	if d.Prev != p.g && d.Prev.Fingerprint() != p.key.GraphFP {
		return nil, fmt.Errorf("%s: delta starts at version %d whose graph does not match this artifact", p.engine, d.PrevVersion)
	}
	start := time.Now()
	np := &Prepared{
		engine: p.engine, family: p.family, key: p.key, g: d.Next, machine: p.machine,
		BuildSeconds: p.BuildSeconds,
	}
	np.key.GraphFP = d.Fingerprint
	switch p.key.Kind {
	case PrepVertex:
		d.Next.BuildInWorkers(o.PrepParallelism)
		np.vert = &VertexArtifact{Inv: patchInv(p.vert.Inv, d)}
		np.Incremental = true
	case PrepPartition:
		hier := p.part.Hier
		touched := touchedPartitionsOf(d, hier)
		off := d.Next.OutOffsets()
		incremental := true
		for _, pid := range touched {
			part := hier.Partitions[pid]
			newEdges := off[part.VertexEnd] - off[part.VertexStart]
			if newEdges > advanceFallbackFactor*part.EdgeCount+advanceFallbackSlack {
				incremental = false
				break
			}
		}
		var (
			nh  *partition.Hierarchy
			nl  *layout.Layout
			err error
		)
		if incremental {
			nh, err = partition.Advance(hier, d.Next, touched)
			if err == nil {
				nl, err = layout.Patch(p.part.Lay, d.Next, nh, touched)
			}
		} else {
			nh, err = partition.BuildWorkers(d.Next, hier.Config, o.PrepParallelism)
			if err == nil {
				nl, err = layout.BuildWorkers(d.Next, nh, p.part.Lay.Compressed, o.PrepParallelism)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("%s: advance: %w", p.engine, err)
		}
		np.part = &PartArtifact{Hier: nh, Lay: nl, Inv: patchInv(p.part.Inv, d)}
		np.Incremental = incremental
	default:
		return nil, fmt.Errorf("%s: artifact carries no payload to advance", p.engine)
	}
	np.Follow(p)
	np.PrepSeconds = time.Since(start).Seconds()
	return np, nil
}

// patchInv clones the 1/outdeg array and recomputes only the mutated
// sources' entries, matching InvOutDegrees on the new graph bit for bit
// (same 1/float64 rounding).
func patchInv(old []float32, d *graph.Delta) []float32 {
	inv := append([]float32(nil), old...)
	for _, v := range d.Touched {
		if deg := d.Next.OutDegree(v); deg > 0 {
			inv[v] = float32(1.0 / float64(deg))
		} else {
			inv[v] = 0
		}
	}
	return inv
}

// touchedPartitionsOf maps the delta's mutated sources to the sorted list
// of source-partition IDs whose layout rows must be recomputed. d.Touched
// is sorted and partitions are contiguous vertex ranges, so the mapped IDs
// arrive in order.
func touchedPartitionsOf(d *graph.Delta, h *partition.Hierarchy) []int {
	out := make([]int, 0, len(d.Touched))
	last := -1
	for _, v := range d.Touched {
		p := h.PartitionOfVertex(v)
		if p != last {
			out = append(out, p)
			last = p
		}
	}
	return out
}

// GraphFingerprint returns a content hash of g's CSR arrays. It is a thin
// wrapper over (*graph.Graph).Fingerprint, which memoizes the value on the
// graph itself — no package-level registry pins fingerprinted graphs in
// memory anymore. Two graphs with identical topology share prep-cache
// entries.
func GraphFingerprint(g *graph.Graph) uint64 { return g.Fingerprint() }
