package machine

import (
	"strings"
	"testing"
)

func TestSkylakePresetMatchesPaper(t *testing.T) {
	m := SkylakeSilver4210()
	if m.NUMANodes != 2 {
		t.Errorf("NUMANodes = %d, want 2", m.NUMANodes)
	}
	if m.CoresPerNode != 10 {
		t.Errorf("CoresPerNode = %d, want 10", m.CoresPerNode)
	}
	if m.LogicalCores() != 40 {
		t.Errorf("LogicalCores = %d, want 40 (paper uses 40 threads)", m.LogicalCores())
	}
	if m.PhysicalCores() != 20 {
		t.Errorf("PhysicalCores = %d, want 20", m.PhysicalCores())
	}
	if m.L2.SizeBytes != 1<<20 {
		t.Errorf("L2 = %d, want 1MB", m.L2.SizeBytes)
	}
	if m.LLC.SizeBytes != int(13.75*(1<<20)) {
		t.Errorf("LLC = %d, want 13.75MB", m.LLC.SizeBytes)
	}
	if m.LLCInclusive {
		t.Error("Skylake LLC must be non-inclusive (§4.5)")
	}
	// Paper §2.2: 1GB local in 0.06s, remote in 0.40s.
	if got := 1e9 / m.LocalBandwidth; got < 0.055 || got > 0.065 {
		t.Errorf("local 1GB read time = %.3fs, want ~0.06", got)
	}
	if got := 1e9 / m.RemoteBandwidth; got < 0.39 || got > 0.41 {
		t.Errorf("remote 1GB read time = %.3fs, want ~0.40", got)
	}
}

func TestHaswellPresetMatchesPaper(t *testing.T) {
	m := HaswellE52667()
	if m.L2.SizeBytes != 256<<10 {
		t.Errorf("L2 = %d, want 256KB", m.L2.SizeBytes)
	}
	if !m.LLCInclusive {
		t.Error("Haswell LLC must be inclusive (§4.5)")
	}
	if m.NUMANodes != 2 {
		t.Errorf("NUMANodes = %d, want 2", m.NUMANodes)
	}
	if m.DRAMBytes*int64(m.NUMANodes) != 64<<30 {
		t.Errorf("total DRAM = %d, want 64GB", m.DRAMBytes*int64(m.NUMANodes))
	}
}

func TestLogicalCoreTopology(t *testing.T) {
	m := SkylakeSilver4210()
	// Node-major numbering: first 20 logical cores on node 0.
	if m.NodeOfLogical(0) != 0 || m.NodeOfLogical(19) != 0 {
		t.Error("logical 0..19 should be node 0")
	}
	if m.NodeOfLogical(20) != 1 || m.NodeOfLogical(39) != 1 {
		t.Error("logical 20..39 should be node 1")
	}
	// Hyper-thread pairs share a physical core.
	if m.PhysicalOfLogical(0) != m.PhysicalOfLogical(1) {
		t.Error("logical 0 and 1 should share a physical core")
	}
	if m.PhysicalOfLogical(1) == m.PhysicalOfLogical(2) {
		t.Error("logical 1 and 2 should not share a physical core")
	}
	if m.SiblingOfLogical(4) != 5 || m.SiblingOfLogical(5) != 4 {
		t.Error("sibling pairing broken")
	}
}

func TestNodeOfLogicalPanics(t *testing.T) {
	m := SkylakeSilver4210()
	for _, bad := range []int{-1, 40} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NodeOfLogical(%d) did not panic", bad)
				}
			}()
			m.NodeOfLogical(bad)
		}()
	}
}

func TestSingleNode(t *testing.T) {
	m := SingleNode(SkylakeSilver4210())
	if m.NUMANodes != 1 {
		t.Fatalf("NUMANodes = %d, want 1", m.NUMANodes)
	}
	if m.LogicalCores() != 20 {
		t.Errorf("LogicalCores = %d, want 20", m.LogicalCores())
	}
	// Original must be unmodified.
	if SkylakeSilver4210().NUMANodes != 2 {
		t.Error("SingleNode mutated the preset")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	base := SkylakeSilver4210()
	mutations := []struct {
		name string
		mut  func(m *Machine)
	}{
		{"zero nodes", func(m *Machine) { m.NUMANodes = 0 }},
		{"zero cores", func(m *Machine) { m.CoresPerNode = 0 }},
		{"bad SMT", func(m *Machine) { m.ThreadsPerCore = 3 }},
		{"L1 > L2", func(m *Machine) { m.L1.SizeBytes = 2 << 20 }},
		{"line mismatch", func(m *Machine) { m.L1.LineBytes = 32; m.L1.Assoc = 8 }},
		{"remote < local latency", func(m *Machine) { m.RemoteLatencyNS = 1 }},
		{"remote > local bandwidth", func(m *Machine) { m.RemoteBandwidth = m.LocalBandwidth * 2 }},
		{"zero GHz", func(m *Machine) { m.CPUGHz = 0 }},
	}
	for _, mu := range mutations {
		c := *base
		mu.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid machine", mu.name)
		}
	}
}

func TestCacheSets(t *testing.T) {
	c := Cache{SizeBytes: 1 << 20, LineBytes: 64, Assoc: 16}
	if got := c.Sets(); got != 1024 {
		t.Errorf("Sets = %d, want 1024", got)
	}
	var zero Cache
	if zero.Sets() != 0 {
		t.Error("zero cache should have 0 sets")
	}
}

func TestStringMentionsInclusivity(t *testing.T) {
	if s := SkylakeSilver4210().String(); !strings.Contains(s, "non-inclusive") {
		t.Errorf("skylake String() = %q", s)
	}
	if s := HaswellE52667().String(); !strings.Contains(s, "inclusive") || strings.Contains(s, "non-inclusive") {
		t.Errorf("haswell String() = %q", s)
	}
}

func TestPresetsMap(t *testing.T) {
	for name, f := range Presets {
		m := f()
		if err := m.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", name, err)
		}
	}
	if len(Presets) < 2 {
		t.Error("expected at least skylake and haswell presets")
	}
}

func TestScaledPreservesRatios(t *testing.T) {
	base := SkylakeSilver4210()
	s := Scaled(base, 256)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Capacity ratios preserved (within way-rounding).
	ratio := float64(base.L2.SizeBytes) / float64(base.LLC.SizeBytes)
	got := float64(s.L2.SizeBytes) / float64(s.LLC.SizeBytes)
	if got < ratio*0.8 || got > ratio*1.2 {
		t.Errorf("L2/LLC ratio drifted: %f vs %f", got, ratio)
	}
	// Latencies, bandwidths, topology unchanged.
	if s.LocalLatencyNS != base.LocalLatencyNS || s.NodeBandwidth != base.NodeBandwidth {
		t.Error("scaling must not change latencies/bandwidths")
	}
	if s.LogicalCores() != base.LogicalCores() {
		t.Error("scaling must not change core counts")
	}
	// Fixed time costs scale down with the divisor.
	if s.ThreadSpawnNS >= base.ThreadSpawnNS {
		t.Error("fixed scheduler costs must scale with the divisor")
	}
	// Divisor 1 is the identity.
	if Scaled(base, 1) != base {
		t.Error("Scaled(m, 1) should return m unchanged")
	}
	// Every level keeps its capacity to within a line, also where the
	// scaled size is below one full set (Haswell's 8-way L2 at 1024 is
	// 256B, half a 512B set), so the tuned partition scales exactly.
	for _, m := range []*Machine{SkylakeSilver4210(), HaswellE52667()} {
		for _, div := range []int{256, 1024} {
			s := Scaled(m, div)
			for _, lv := range []struct {
				name      string
				orig, got Cache
			}{{"L1", m.L1, s.L1}, {"L2", m.L2, s.L2}, {"LLC", m.LLC, s.LLC}} {
				want := lv.orig.SizeBytes / div
				if d := lv.got.SizeBytes - want; d > lv.orig.LineBytes || -d > lv.orig.LineBytes {
					t.Errorf("%s/%d %s: scaled size %dB, want within a line of %dB",
						m.Name, div, lv.name, lv.got.SizeBytes, want)
				}
			}
			if got, want := s.TunedPartitionBytes(), m.TunedPartitionBytes()/div; got != want {
				t.Errorf("%s/%d: TunedPartitionBytes = %d, want %d", m.Name, div, got, want)
			}
		}
	}
}

func TestWithNodes(t *testing.T) {
	base := SkylakeSilver4210()
	for _, n := range []int{1, 2, 4, 8} {
		m := WithNodes(base, n)
		if m.NUMANodes != n {
			t.Fatalf("NUMANodes = %d, want %d", m.NUMANodes, n)
		}
		if m.LogicalCores() != n*20 {
			t.Errorf("LogicalCores = %d", m.LogicalCores())
		}
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	// Interconnect grows with socket count.
	if WithNodes(base, 8).InterconnectGBps <= base.InterconnectGBps {
		t.Error("interconnect should grow with nodes")
	}
	if base.NUMANodes != 2 {
		t.Error("WithNodes mutated the base machine")
	}
}
