// Package bench regenerates every table and figure of the paper's
// evaluation (§5): the engine-comparison Tables 6–7, the ablation Tables
// 1–3 (Ideas 4, 6, 7), the GAO-sensitivity Table 4, the parallel-granularity
// Table 5, and the scaling Figures 3–7. Datasets are the synthetic SNAP
// stand-ins from internal/dataset; results print in the paper's layout with
// "-" marking timeouts and "mem" marking intermediate-result budget
// exhaustion, so shapes are directly comparable to the published tables.
package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/minesweeper"
	"repro/internal/pairwise"
	"repro/internal/query"
)

// Config controls a harness run.
type Config struct {
	// Out receives the formatted tables.
	Out io.Writer
	// Timeout bounds each execution (the paper used 30 minutes on EC2; the
	// default here is 5s per cell so a full run stays laptop-friendly).
	Timeout time.Duration
	// Scale selects the dataset tier: "small" (the paper's 8 small sets),
	// "medium" (adds the 4 mid-size sets), "full" (adds the scaled-down
	// Pokec/LiveJournal/Orkut stand-ins).
	Scale string
	// Datasets, when non-empty, overrides the tier with an explicit list of
	// catalog names.
	Datasets []string
	// Repeats: executions per cell; the cell reports the mean of all but
	// the first when Repeats >= 3 (the paper's protocol), else the minimum.
	Repeats int
	// Workers for the parallel engines (0 = all cores).
	Workers int
	// SampleSeed varies the random node samples between runs.
	SampleSeed int64
}

// withDefaults fills zero values.
func (c Config) withDefaults() Config {
	if c.Out == nil {
		c.Out = io.Discard
	}
	if c.Timeout <= 0 {
		c.Timeout = 5 * time.Second
	}
	if c.Scale == "" {
		c.Scale = "small"
	}
	if c.Repeats <= 0 {
		c.Repeats = 1
	}
	if c.SampleSeed == 0 {
		c.SampleSeed = 1
	}
	return c
}

// smallSets is the paper's selectivity-8/80 dataset group; mediumSets the
// selectivity-10/100/1000 group; bigSets the three largest.
var (
	smallSets = []string{
		"wiki-Vote", "p2p-Gnutella31", "p2p-Gnutella04", "loc-Brightkite",
		"ego-Facebook", "email-Enron", "ca-GrQc", "ca-CondMat",
	}
	mediumSets = []string{
		"ego-Twitter", "soc-Slashdot0902", "soc-Slashdot0811", "soc-Epinions1",
	}
	bigSets = []string{"soc-Pokec", "soc-LiveJournal1", "com-Orkut"}
)

func (c Config) datasets() []string {
	if len(c.Datasets) > 0 {
		return c.Datasets
	}
	switch c.Scale {
	case "medium":
		return append(append([]string{}, smallSets...), mediumSets...)
	case "full":
		return append(append(append([]string{}, smallSets...), mediumSets...), bigSets...)
	default:
		return smallSets
	}
}

// site is a materialized dataset: the graph and its database. Samples are
// swapped in place per selectivity; edge indexes persist across runs.
type site struct {
	spec dataset.Spec
	g    *dataset.Graph
	db   *core.DB
}

// Harness caches dataset sites across tables.
type Harness struct {
	cfg   Config
	sites map[string]*site
}

// NewHarness builds a harness.
func NewHarness(cfg Config) *Harness {
	return &Harness{cfg: cfg.withDefaults(), sites: make(map[string]*site)}
}

// Config returns the effective configuration.
func (h *Harness) Config() Config { return h.cfg }

func (h *Harness) site(name string) (*site, error) {
	if s, ok := h.sites[name]; ok {
		return s, nil
	}
	spec, err := dataset.Lookup(name)
	if err != nil {
		return nil, err
	}
	g := spec.Build()
	s := &site{spec: spec, g: g, db: dataset.DB(g, 1, h.cfg.SampleSeed)}
	h.sites[name] = s
	return s, nil
}

// setSelectivity redraws all four samples on a site in place (paper §5.1:
// "we ensure each system sees the same random datasets"); edge indexes stay
// cached.
func (h *Harness) setSelectivity(s *site, sel int) {
	dataset.ReplaceNamedSamples(s.db, dataset.DrawSamples(s.g, sel, h.cfg.SampleSeed*1000+int64(sel)))
}

// result is one cell outcome.
type result struct {
	seconds float64
	count   int64
	status  status
}

type status int

const (
	ok status = iota
	timeout
	memory
	notSupported
	failed
)

func (r result) String() string {
	switch r.status {
	case ok:
		return formatSeconds(r.seconds)
	case timeout:
		return "-"
	case memory:
		return "mem"
	case notSupported:
		return "n/a"
	default:
		return "err"
	}
}

func formatSeconds(s float64) string {
	switch {
	case s < 0.01:
		return fmt.Sprintf("%.3f", s)
	case s < 10:
		return fmt.Sprintf("%.2f", s)
	default:
		return fmt.Sprintf("%.0f", s)
	}
}

// run executes one cell: query q on db with the given engine options. The
// query is prepared once — the plan is compiled against the site's physical
// design (and cached on the site's DB across cells) — and the repeat loop
// is pure execution, matching the paper's protocol of timing a planned
// query, not the planner.
func (h *Harness) run(opts engine.Options, q *query.Query, db *core.DB) result {
	if opts.Workers == 0 {
		opts.Workers = h.cfg.Workers
	}
	eng, _, err := engine.Prepare(opts, q, db)
	if err != nil {
		return result{status: failed}
	}
	var best result
	for rep := 0; rep < h.cfg.Repeats; rep++ {
		ctx, cancel := context.WithTimeout(context.Background(), h.cfg.Timeout)
		start := time.Now()
		count, err := eng.Count(ctx, q, db)
		elapsed := time.Since(start).Seconds()
		cancel()
		switch {
		case err == nil:
			if rep == 0 || elapsed < best.seconds {
				best = result{seconds: elapsed, count: count, status: ok}
			}
		case errors.Is(err, context.DeadlineExceeded):
			return result{seconds: elapsed, status: timeout}
		case errors.Is(err, pairwise.ErrMemoryExceeded):
			return result{status: memory}
		case isNotSupported(err):
			return result{status: notSupported}
		default:
			return result{status: failed}
		}
	}
	return best
}

func isNotSupported(err error) bool {
	if err == nil {
		return false
	}
	s := err.Error()
	return strings.Contains(s, "not implemented") || strings.Contains(s, "not supported") || strings.Contains(s, "alpha-acyclic")
}

// msOptions builds engine options for Minesweeper with idea toggles.
func msOptions(ms minesweeper.Options, workers int) engine.Options {
	return engine.Options{Algorithm: engine.MS, MS: ms, Workers: workers}
}
