// Package harness regenerates every table and figure of the paper's
// evaluation section as code: given a scale divisor, it generates the
// dataset analogs, scales the simulated machine by the same factor (so
// cache-to-working-set ratios match the paper's), runs the five engines with
// the paper's settings, and renders the same rows/series the paper reports.
//
// Experiment index (see DESIGN.md §3):
//
//	Table1     — graph statistics + intra/inter edges per 1MB partition
//	Table2     — PageRank execution time, 5 engines × 6 graphs
//	Overhead   — §4.2 preprocessing overhead and amortization
//	Fig5       — memory accesses per edge, local/remote split
//	Fig6       — scalability over thread counts on journal
//	Fig7       — LLC traffic + execution time over partition sizes
//	Table3     — partition-size sensitivity on Haswell vs Skylake
//	SingleNode — §4.5 single-node vs 2-node HiPa
//	Ablations  — design-choice ablations from DESIGN.md §4
package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"

	"hipa/internal/engines/bppr"
	"hipa/internal/engines/common"
	"hipa/internal/engines/delta"
	"hipa/internal/engines/gpop"
	"hipa/internal/engines/hipa"
	"hipa/internal/engines/polymer"
	"hipa/internal/engines/ppr"
	"hipa/internal/engines/vpr"
	"hipa/internal/gen"
	"hipa/internal/graph"
	"hipa/internal/machine"
	"hipa/internal/platform"
)

// Config parameterises a reproduction run.
type Config struct {
	// Divisor scales dataset vertex counts and machine capacities down from
	// paper scale. gen.DefaultDivisor (256) keeps the full suite at ~25M
	// edges.
	Divisor int
	// Iterations per timed run; the paper uses 20.
	Iterations int
	// Datasets restricts the experiments; nil means the full catalog.
	Datasets []string
	// SchedSeed seeds the simulated OS scheduler.
	SchedSeed uint64
	// Preset names the machine preset experiments run on when they don't
	// pick one themselves (Table 3 sweeps both); NewConfig sets "skylake".
	Preset string
	// Native runs every engine on the pass-through native platform: real
	// wall-clock execution with no scheduler/cache/cost modelling, so all
	// modelled columns report zero (see platform.Native).
	Native bool
	// Prep is the shared preprocessing-artifact cache threaded into every
	// engine run via PaperOptions, so sweep experiments (Fig. 6's thread
	// counts, Fig. 7's partition sizes, Table 2's grid) build each (graph,
	// partition-size) artifact exactly once. nil disables reuse.
	Prep *common.PrepCache
	// PrepParallelism is the Prepare-pipeline worker count threaded into
	// every engine run via PaperOptions (0 = all cores, positive = that
	// many). Artifacts are bit-identical at any setting.
	PrepParallelism int

	mu    sync.Mutex
	cache map[string]*graph.Graph
}

// NewConfig returns the default configuration (paper settings at divisor
// 256).
func NewConfig() *Config {
	return &Config{
		Divisor:    gen.DefaultDivisor,
		Iterations: common.DefaultIterations,
		SchedSeed:  0xC0FFEE,
		Preset:     "skylake",
		Prep:       common.NewPrepCache(64),
	}
}

// DatasetNames returns the configured dataset list.
func (c *Config) DatasetNames() []string {
	if len(c.Datasets) > 0 {
		return c.Datasets
	}
	return gen.Names()
}

// Graph returns the (cached) analog of the named dataset.
func (c *Config) Graph(name string) (*graph.Graph, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if g, ok := c.cache[name]; ok {
		return g, nil
	}
	g, err := gen.GenerateByName(name, c.Divisor)
	if err != nil {
		return nil, err
	}
	if c.cache == nil {
		c.cache = map[string]*graph.Graph{}
	}
	c.cache[name] = g
	return g, nil
}

// Machine returns the named preset scaled by the divisor.
func (c *Config) Machine(preset string) (*machine.Machine, error) {
	f, ok := machine.Presets[preset]
	if !ok {
		return nil, fmt.Errorf("harness: unknown machine preset %q", preset)
	}
	return machine.Scaled(f(), c.Divisor), nil
}

// DefaultMachine returns the configured preset (Config.Preset, "skylake"
// when unset) scaled by the divisor — what every experiment that doesn't
// sweep microarchitectures runs on.
func (c *Config) DefaultMachine() (*machine.Machine, error) {
	preset := c.Preset
	if preset == "" {
		preset = "skylake"
	}
	return c.Machine(preset)
}

// PartBytes converts a paper-scale partition size to the scaled equivalent.
func (c *Config) PartBytes(paperBytes int) int {
	b := paperBytes / c.Divisor
	if b < 16 {
		b = 16
	}
	return b
}

// Engines returns the five engines in the paper's reporting order.
// Paper-shape experiments iterate exactly this set.
func Engines() []common.Engine {
	return []common.Engine{hipa.Engine{}, ppr.Engine{}, vpr.Engine{}, gpop.Engine{}, polymer.Engine{}}
}

// AllEngines returns every registered engine: the paper five followed by
// the frontier-aware Delta-PR and the batched personalized-PageRank engine
// (B-PPR).
func AllEngines() []common.Engine {
	return append(Engines(), delta.Engine{}, bppr.Engine{})
}

// engineAliases maps short -engine spellings to registry names.
var engineAliases = map[string]string{
	"delta": delta.Name,
	"bppr":  bppr.Name,
}

// EngineNames returns every accepted -engine value: the registry names in
// order, short aliases appended.
func EngineNames() []string {
	var names []string
	for _, e := range AllEngines() {
		names = append(names, e.Name())
	}
	return append(names, "delta", "bppr")
}

// EngineByName looks an engine up by its registry name (case-insensitive)
// or a short alias ("delta", "bppr"). The error of an unknown name lists
// every accepted value.
func EngineByName(name string) (common.Engine, error) {
	if full, ok := engineAliases[strings.ToLower(name)]; ok {
		name = full
	}
	for _, e := range AllEngines() {
		if strings.EqualFold(e.Name(), name) {
			return e, nil
		}
	}
	return nil, fmt.Errorf("harness: unknown engine %q (choose from %s)", name, strings.Join(EngineNames(), ", "))
}

// PaperOptions returns the paper's tuned settings (§4.1) for the given
// engine on machine m at the configured scale: 40 threads and 256KB
// partitions for HiPa, 20 threads for p-PR (256KB) and GPOP (1MB), 40
// threads for v-PR and Polymer.
func (c *Config) PaperOptions(engineName string, m *machine.Machine) common.Options {
	o := common.Options{
		Machine:         m,
		Iterations:      c.Iterations,
		SchedSeed:       c.SchedSeed,
		PrepCache:       c.Prep,
		PrepParallelism: c.PrepParallelism,
	}
	if c.Native {
		o.Platform = platform.NewNative(m)
	}
	switch strings.ToLower(engineName) {
	case "hipa", "delta-pr", "delta", "b-ppr", "bppr":
		// Delta-PR and B-PPR share HiPa's execution shape and tuning; their
		// gate and retirement tolerances default inside the engines when
		// Tolerance is zero.
		o.Threads = m.LogicalCores()
		o.PartitionBytes = c.PartBytes(256 << 10)
	case "p-pr":
		o.Threads = m.PhysicalCores()
		o.PartitionBytes = c.PartBytes(256 << 10)
	case "gpop":
		o.Threads = m.PhysicalCores()
		o.PartitionBytes = c.PartBytes(1 << 20)
	default: // v-PR, Polymer
		o.Threads = m.LogicalCores()
	}
	return o
}

// Seconds returns the run time experiments report for res: the modelled
// estimate on a simulated platform, the real wall-clock time on the native
// platform (where modelled metrics are zero by contract, never fabricated).
func (c *Config) Seconds(res *common.Result) float64 {
	if c.Native {
		return res.WallSeconds
	}
	return res.Model.EstimatedSeconds
}

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	b.WriteString("== " + t.Title + " ==\n")
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(widths) {
				for p := len(cell); p < widths[i]; p++ {
					b.WriteByte(' ')
				}
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		b.WriteString("note: " + n + "\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// RenderCSV writes the table as RFC-4180-style CSV (title and notes as
// comment lines), for piping into plotting tools.
func (t *Table) RenderCSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString("# " + t.Title + "\n")
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(cell, ",\"\n") {
				cell = "\"" + strings.ReplaceAll(cell, "\"", "\"\"") + "\""
			}
			b.WriteString(cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		b.WriteString("# " + n + "\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// RenderJSON writes the table as an indented JSON object
// ({"title","header","rows","notes"}), the machine-readable form hipabench
// emits for benchmark trajectories (BENCH_*.json).
func (t *Table) RenderJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Title  string     `json:"title"`
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
		Notes  []string   `json:"notes,omitempty"`
	}{t.Title, t.Header, t.Rows, t.Notes})
}

func f2(x float64) string  { return fmt.Sprintf("%.2f", x) }
func f3(x float64) string  { return fmt.Sprintf("%.3f", x) }
func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }
