// Components: the generic-use scenario from the paper's conclusion —
// "the methodology of HiPa can be deployed to more generic use scenarios."
// Labels weakly connected components and computes hop distances and
// reachability on a web graph with the frontier traversals: BFS's edge map
// on the superstep driver, each run ending when its frontier empties.
package main

import (
	"fmt"
	"log"
	"sort"

	"hipa"
)

func main() {
	g, err := hipa.Generate("wiki", 1024)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wiki analog: %d pages, %d links\n\n", g.NumVertices(), g.NumEdges())

	cfg := hipa.FrameworkConfig{Threads: 8, MaxIterations: 500}

	// Weakly connected components via min-label propagation.
	wcc, err := hipa.WCC(g, cfg)
	if err != nil {
		log.Fatal(err)
	}
	sizes := map[uint32]int{}
	for _, label := range wcc.Values {
		sizes[label]++
	}
	type comp struct {
		label uint32
		size  int
	}
	var comps []comp
	for l, s := range sizes {
		comps = append(comps, comp{l, s})
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i].size > comps[j].size })
	fmt.Printf("WCC converged in %d iterations: %d components\n", wcc.Iterations, len(comps))
	for i, c := range comps {
		if i == 3 {
			break
		}
		fmt.Printf("  component %d: %d pages (%.1f%%)\n",
			c.label, c.size, 100*float64(c.size)/float64(g.NumVertices()))
	}

	// Hop distances from the giant component's canonical page.
	hops, err := hipa.Hops(g, hipa.VertexID(comps[0].label), cfg)
	if err != nil {
		log.Fatal(err)
	}
	hist := map[int32]int{}
	reached := 0
	for _, h := range hops.Values {
		if h != hipa.UnreachableHops {
			hist[h]++
			reached++
		}
	}
	fmt.Printf("\nhop distances from page %d (%d reachable):\n", comps[0].label, reached)
	for d := int32(0); int(d) < len(hist) && d < 10; d++ {
		fmt.Printf("  %2d hops: %d pages\n", d, hist[d])
	}

	// Reachability count, cross-checked against the hop labels.
	reach, err := hipa.Reachable(g, hipa.VertexID(comps[0].label), cfg)
	if err != nil {
		log.Fatal(err)
	}
	count := 0
	for _, r := range reach.Values {
		count += int(r)
	}
	fmt.Printf("\nforward-reachable pages: %d (agrees with hops: %v)\n", count, count == reached)
}
