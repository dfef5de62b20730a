package minesweeper

// Stats holds one run's execution counters, making the ablation tables
// interpretable: the paper's Ideas 4, 6 and 8 all trade index/CDS work for
// bookkeeping, and these counters show the trade directly. Each run reports
// them through Options.Collector on the unified core stats surface.
type Stats struct {
	// Probes is the number of index probes actually issued (seekGap calls).
	Probes int64
	// ProbeMemoHits counts probes answered from the Idea 4 memo without
	// touching the index.
	ProbeMemoHits int64
	// Constraints is the number of gap-box constraints inserted into the CDS.
	Constraints int64
	// FreeTupleSteps is the number of CDS search iterations (Algorithm 4
	// loop turns).
	FreeTupleSteps int64
	// Outputs is the number of result tuples reported.
	Outputs int64
	// ReuseHits counts Idea 8 subtree-count reuses (whole subtrees skipped).
	ReuseHits int64
	// MemoStores counts subtree counts recorded for future reuse.
	MemoStores int64
}
