// SpMV: the paper frames PageRank as iterative sparse matrix-vector
// multiplication (§1) and names SpMV as the first future-work extension
// (§6). This example uses the HiPa substrate's SpMV kernel to count k-hop
// walks on a Graph500 Kronecker graph and cross-checks PageRank built from
// raw SpMV steps against the engine result.
package main

import (
	"fmt"
	"log"
	"math"

	"hipa"
)

func main() {
	g, err := hipa.RMAT(13, 16, 7) // 8192 vertices, ~131k edges
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("kron graph: %d vertices, %d edges\n\n", g.NumVertices(), g.NumEdges())

	cfg := hipa.AlgoConfig{Threads: 8}

	// Walks of length k from vertex 0: x0 = e_0, x_k = (A^T)^k e_0.
	x := make([]float32, g.NumVertices())
	x[0] = 1
	for k := 1; k <= 3; k++ {
		y, err := hipa.SpMVIterate(g, x, k, cfg)
		if err != nil {
			log.Fatal(err)
		}
		var total float64
		for _, v := range y {
			total += float64(v)
		}
		fmt.Printf("walks of length %d from vertex 0: %.0f\n", k, total)
	}

	// PageRank assembled from raw SpMV steps must match the HiPa engine.
	const iters = 10
	const d = 0.85
	n := g.NumVertices()
	rank := make([]float32, n)
	contrib := make([]float32, n)
	for i := range rank {
		rank[i] = 1 / float32(n)
	}
	base := float32((1 - d) / float64(n))
	for it := 0; it < iters; it++ {
		var dangling float64
		for v := 0; v < n; v++ {
			if deg := g.OutDegree(hipa.VertexID(v)); deg > 0 {
				contrib[v] = rank[v] / float32(deg)
			} else {
				contrib[v] = 0
				dangling += float64(rank[v])
			}
		}
		acc, err := hipa.SpMV(g, contrib, cfg)
		if err != nil {
			log.Fatal(err)
		}
		redis := float32(d * dangling / float64(n))
		for v := 0; v < n; v++ {
			rank[v] = base + float32(d*acc[v]) + redis
		}
	}

	res, err := hipa.HiPa.Run(g, hipa.Options{Iterations: iters, PartitionBytes: 4096})
	if err != nil {
		log.Fatal(err)
	}
	var worst float64
	for v := range rank {
		if diff := math.Abs(float64(rank[v] - res.Ranks[v])); diff > worst {
			worst = diff
		}
	}
	fmt.Printf("\nPageRank via raw SpMV vs HiPa engine: max abs difference %.2e\n", worst)
	fmt.Println("(the paper's observation: PageRank IS iterative SpMV)")
}
