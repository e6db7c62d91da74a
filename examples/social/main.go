// Social: influence analysis on a Twitter-style follower network — the
// paper's social-network use case, extended with the §6 future-work
// algorithms. Finds the top influencers with incremental PageRank-Delta,
// then measures how far the top influencer's posts can cascade with a
// parallel BFS.
package main

import (
	"fmt"
	"log"

	"hipa"
)

func main() {
	const divisor = 1024

	g, err := hipa.Generate("twitter", divisor)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("twitter analog: %d users, %d follow edges\n\n", g.NumVertices(), g.NumEdges())

	// Incremental PageRank: stop propagating deltas below tolerance/16.
	// The active set shrinks as influence scores converge.
	res, err := hipa.PageRankDelta(g, hipa.DeltaOptions{
		Config:        hipa.AlgoConfig{Threads: 8},
		Tolerance:     1.6e-7,
		MaxIterations: 40,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("PageRank-Delta converged in %d iterations\n", res.Iterations)
	fmt.Printf("active vertices per iteration: %v ...\n\n", head(res.ActiveHistory, 8))

	top := hipa.TopK(res.Ranks, 5)
	fmt.Println("top influencers:")
	for _, v := range top {
		fmt.Printf("  user %6d  influence %.6f\n", v, res.Ranks[v])
	}

	// Cascade reach: BFS along follow edges from the top influencer.
	bfs, err := hipa.BFS(g, top[0], hipa.AlgoConfig{Threads: 8})
	if err != nil {
		log.Fatal(err)
	}
	maxDepth := int32(0)
	for _, l := range bfs.Levels {
		if l > maxDepth {
			maxDepth = l
		}
	}
	fmt.Printf("\ncascade from user %d: reaches %d of %d users (%.1f%%), max depth %d\n",
		top[0], bfs.Visited, g.NumVertices(),
		100*float64(bfs.Visited)/float64(g.NumVertices()), maxDepth)
}

func head(xs []int, n int) []int {
	if len(xs) < n {
		return xs
	}
	return xs[:n]
}
