package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"text/tabwriter"
)

// benchDef is the part of BENCHMARK.json compare mode reads.
type benchDef struct {
	EndToEnd []boundDef `json:"end_to_end"`
	PerLayer []boundDef `json:"per_layer"`
}

type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// Verdicts on one metric of one workload.
const (
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
	verdictWithin     = "within bound"
)

// judge compares the runs of the baseline a with those of the candidate b.
// delta is the signed change of the median as a share of a's median. The
// metric regressed when b's median is worse by more than bound; it is
// unresolved when either side's spread (interquartile range over median) is
// wider than bound, unless every run of b is better than every run of a.
func judge(a, b []float64, lowerBetter bool, bound float64) (delta float64, verdict string) {
	sa, sb := sorted(a), sorted(b)
	ma, mb := medianOf(sa), medianOf(sb)
	delta = ratio(mb-ma, ma)
	worse := delta
	allBetter := sb[len(sb)-1] < sa[0]
	if !lowerBetter {
		worse = -delta
		allBetter = sb[0] > sa[len(sa)-1]
	}
	switch {
	case max(spread(a), spread(b)) > bound && !allBetter:
		return delta, verdictUnresolved
	case worse > bound:
		return delta, verdictRegressed
	}
	return delta, verdictWithin
}

// readReports reads a file of reports, one JSON object per line.
func readReports(path string) ([]report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []report
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(nil, 64<<20)
	for line := 1; sc.Scan(); line++ {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// runKey identifies what a run measured: the same workload on the same
// inputs with the same procs. Runs of different keys are not comparable.
func runKey(r report) string {
	var fps []string
	for _, in := range r.Inputs {
		fps = append(fps, in.Name+"="+in.Fingerprint)
	}
	return fmt.Sprintf("procs=%d %s", r.Procs, strings.Join(fps, " "))
}

// compareFiles prints, per workload and metric, the median change from the
// runs in aPath to those in bPath with its verdict under the bounds of the
// benchmark definition at defPath. It reports whether any metric regressed,
// and refuses runs whose procs or input fingerprints differ.
func compareFiles(w io.Writer, defPath, aPath, bPath string) (regressed bool, err error) {
	raw, err := os.ReadFile(defPath)
	if err != nil {
		return false, err
	}
	var def benchDef
	if err := json.Unmarshal(raw, &def); err != nil {
		return false, fmt.Errorf("%s: %w", defPath, err)
	}
	as, err := readReports(aPath)
	if err != nil {
		return false, err
	}
	bs, err := readReports(bPath)
	if err != nil {
		return false, err
	}
	byWorkload := func(rs []report) map[string][]report {
		m := map[string][]report{}
		for _, r := range rs {
			m[r.Workload] = append(m[r.Workload], r)
		}
		return m
	}
	wa, wb := byWorkload(as), byWorkload(bs)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median\tB median\tdelta\tspread A\tspread B\tbound\tverdict")
	for _, name := range workloadNames() {
		ra, rb := wa[name], wb[name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		keys := func(rs []report) []string {
			var k []string
			for _, r := range rs {
				k = append(k, runKey(r))
			}
			slices.Sort(k)
			return k
		}
		if !slices.Equal(keys(ra), keys(rb)) {
			return false, fmt.Errorf("%s: refusing to compare runs with different procs or inputs:\n  A: %v\n  B: %v", name, keys(ra), keys(rb))
		}
		rows := func(defs []boundDef, pick func(report) map[string]metric, bounded bool) {
			for _, d := range defs {
				var a, b []float64
				for _, r := range ra {
					if m, ok := pick(r)[d.Name]; ok {
						a = append(a, m.Value)
					}
				}
				for _, r := range rb {
					if m, ok := pick(r)[d.Name]; ok {
						b = append(b, m.Value)
					}
				}
				if len(a) == 0 || len(b) == 0 {
					continue
				}
				delta, verdict := judge(a, b, d.Better == "lower", d.Bound)
				bound := fmt.Sprintf("%.1f%%", 100*d.Bound)
				if !bounded {
					verdict, bound = "no bound", "-"
				}
				regressed = regressed || verdict == verdictRegressed
				fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.2f%%\t%.2f%%\t%s\t%s\n",
					name, d.Name, d.Unit, medianOf(sorted(a)), medianOf(sorted(b)), 100*delta, 100*spread(a), 100*spread(b), bound, verdict)
			}
		}
		rows(def.EndToEnd, func(r report) map[string]metric { return r.Metrics }, true)
		rows(def.PerLayer, func(r report) map[string]metric { return r.Layers }, false)
	}
	return regressed, tw.Flush()
}
