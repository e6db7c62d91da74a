package main

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"hipa"
)

// A rank may differ from the float64 reference at the same iteration count
// by rankTolerance, hipapr -verify's default, plus rankRelTolerance of the
// reference. The engines accumulate in float32: on a hub holding 2% of the
// in-edges the rounding alone reaches about 7e-5 of its rank, past 1e-6.
const (
	rankTolerance    = 1e-6
	rankRelTolerance = 2e-4
)

// maxFailures bounds the failure messages a report keeps.
const maxFailures = 10

// opCount counts checked operations. It is shared by concurrent clients.
type opCount struct {
	mu                sync.Mutex
	attempted, failed int64
	failures          []string
}

// record counts one operation that failed when err is non-nil, and reports
// whether it succeeded.
func (o *opCount) record(err error) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	if err == nil {
		return true
	}
	o.failed++
	if len(o.failures) < maxFailures {
		o.failures = append(o.failures, err.Error())
	}
	return false
}

// checkRanks accepts a full rank vector that sums to 1 within 1e-3 and
// matches the reference within rankTolerance everywhere.
func checkRanks(ranks []float32, ref []float64) error {
	if len(ranks) != len(ref) {
		return fmt.Errorf("rank vector has %d entries, graph has %d vertices", len(ranks), len(ref))
	}
	if s := hipa.RankSum(ranks); !(math.Abs(s-1) <= 1e-3) {
		return fmt.Errorf("ranks sum to %g, want 1", s)
	}
	for v, r := range ranks {
		if err := checkRank(uint32(v), float64(r), ref); err != nil {
			return err
		}
	}
	return nil
}

// checkRank accepts one vertex's rank close to the reference.
func checkRank(v uint32, rank float64, ref []float64) error {
	if int(v) >= len(ref) {
		return fmt.Errorf("vertex %d outside a graph of %d vertices", v, len(ref))
	}
	if d := math.Abs(rank - ref[v]); !(d <= rankTolerance+rankRelTolerance*ref[v]) {
		return fmt.Errorf("vertex %d has rank %g, reference %g", v, rank, ref[v])
	}
	return nil
}

// entry is one line of a top-k answer.
type entry struct {
	Vertex int32   `json:"vertex"`
	Rank   float64 `json:"rank"`
}

// checkOrder accepts a top-k list of want entries in the service's order:
// rank descending, ties by ascending vertex.
func checkOrder(top []entry, want int) error {
	if len(top) != want {
		return fmt.Errorf("top-k has %d entries, want %d", len(top), want)
	}
	for i := 1; i < len(top); i++ {
		a, b := top[i-1], top[i]
		if a.Rank < b.Rank || (a.Rank == b.Rank && a.Vertex >= b.Vertex) {
			return fmt.Errorf("top-k out of order at %d: (%d, %g) before (%d, %g)", i, a.Vertex, a.Rank, b.Vertex, b.Rank)
		}
	}
	return nil
}

// checkTopK accepts an ordered top-k list whose every rank matches the
// reference.
func checkTopK(top []entry, want int, ref []float64) error {
	if err := checkOrder(top, want); err != nil {
		return err
	}
	for _, e := range top {
		if e.Vertex < 0 {
			return fmt.Errorf("top-k lists vertex %d", e.Vertex)
		}
		if err := checkRank(uint32(e.Vertex), e.Rank, ref); err != nil {
			return err
		}
	}
	return nil
}

// checkNeighbors accepts a neighbors answer for vertex v that reports row's
// full length as the degree and lists its first limit entries.
func checkNeighbors(v uint32, vertex int64, degree int, listed, row []uint32, limit int) error {
	if vertex != int64(v) {
		return fmt.Errorf("neighbors of vertex %d answered for %d", v, vertex)
	}
	if degree != len(row) {
		return fmt.Errorf("vertex %d has degree %d, answered %d", v, len(row), degree)
	}
	if !slices.Equal(listed, row[:min(limit, len(row))]) {
		return fmt.Errorf("vertex %d: neighbors differ from the graph's", v)
	}
	return nil
}
