package common

// FrontierReport summarises the pruning effectiveness of one frontier-aware
// Exec: how much of the iteration space actually executed. Attached to
// Result.Frontier by Delta-PR; nil for the dense engines.
type FrontierReport struct {
	// TotalPartitions / TotalVertices describe the full graph.
	TotalPartitions int   `json:"total_partitions"`
	TotalVertices   int64 `json:"total_vertices"`
	// IterationsExecuted is the number of supersteps the driver ran.
	IterationsExecuted int `json:"iterations_executed"`
	// ActivePartitionIterations / ActiveVertexIterations are the summed
	// active-set sizes over all executed iterations (a dense engine would
	// accrue IterationsExecuted × Total each).
	ActivePartitionIterations int64 `json:"active_partition_iterations"`
	ActiveVertexIterations    int64 `json:"active_vertex_iterations"`
	// PartitionsSkipped is the partition-iterations pruned away:
	// IterationsExecuted × TotalPartitions − ActivePartitionIterations.
	PartitionsSkipped int64 `json:"partitions_skipped"`
	// PushPartitionIterations is the scattering partition-iterations that
	// pushed their intra-edges over the out-CSR instead of pulling them.
	PushPartitionIterations int64 `json:"push_partition_iterations"`
}

// ActiveFraction is the executed share of the dense vertex-iteration space;
// 1.0 means no pruning happened.
func (r *FrontierReport) ActiveFraction() float64 {
	denom := int64(r.IterationsExecuted) * r.TotalVertices
	if denom == 0 {
		return 0
	}
	return float64(r.ActiveVertexIterations) / float64(denom)
}
