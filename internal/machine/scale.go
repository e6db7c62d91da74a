package machine

// Scaled returns a copy of m with all capacity parameters (cache sizes,
// DRAM) divided by div, keeping latencies, bandwidths and core counts
// unchanged.
//
// Why this exists: the paper's datasets are billions of edges; the catalog
// regenerates them scaled down by a divisor (internal/gen). Cache behaviour
// — the heart of the paper — depends on the *ratio* of working sets to cache
// capacities (does a rank array fit in the LLC? does a partition plus its
// buffers fit in L2?). Scaling the machine's capacities by the same divisor
// as the dataset preserves every such ratio, so the partition-size optima
// and LLC spill points land at the same paper-labelled sizes. Experiment
// reports label partition sizes at paper scale (the scaled size × div).
//
// Cache sizes are rounded to the nearest whole number of sets at the
// original associativity so the geometry stays valid. A level whose scaled
// size is smaller than one full set keeps its capacity instead of rounding
// up to that set: it becomes a single set whose associativity is the scaled
// size in whole lines (at least one line).
func Scaled(m *Machine, div int) *Machine {
	if div <= 1 {
		return m
	}
	c := *m
	c.Name = m.Name + "-scaled"
	c.L1 = scaleCache(m.L1, div)
	c.L2 = scaleCache(m.L2, div)
	c.LLC = scaleCache(m.LLC, div)
	c.DRAMBytes = m.DRAMBytes / int64(div)
	// Fixed time costs scale with the divisor too: a run on 1/div-sized
	// data takes ~1/div the time, so constant overheads (thread spawns,
	// migrations, barriers) must shrink by the same factor to keep their
	// *relative* weight equal to paper scale — otherwise they dominate the
	// scaled-down iteration times and distort every shape.
	c.ThreadMigrationNS = m.ThreadMigrationNS / float64(div)
	c.ThreadSpawnNS = m.ThreadSpawnNS / float64(div)
	c.SyncBarrierNS = m.SyncBarrierNS / float64(div)
	if err := c.Validate(); err != nil {
		panic("machine: invalid scaled machine: " + err.Error())
	}
	return &c
}

func scaleCache(c Cache, div int) Cache {
	size := c.SizeBytes / div
	set := c.LineBytes * c.Assoc
	if size < set {
		lines := (size + c.LineBytes/2) / c.LineBytes
		if lines < 1 {
			lines = 1
		}
		c.Assoc = lines
		c.SizeBytes = lines * c.LineBytes
		return c
	}
	sets := (size + set/2) / set
	c.SizeBytes = sets * set
	return c
}
