// Command benchtables regenerates the paper's evaluation artifacts: every
// table (1–7) and figure (3–7) of "Join Processing for Graph Patterns: An
// Old Dog with New Tricks". Run with no flags for the full suite at the
// default (laptop-friendly) scale, or select individual artifacts:
//
//	benchtables -table 6 -scale medium -timeout 10s
//	benchtables -figure 3
//	benchtables -all -scale small -timeout 5s
//
// Output layout mirrors the paper: "-" marks a timeout, "mem" an exceeded
// intermediate-result budget, "n/a" an unsupported query/engine pairing.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dataset"
)

func main() {
	var (
		table   = flag.Int("table", 0, "regenerate a single table (1-7)")
		figure  = flag.Int("figure", 0, "regenerate a single figure (3-7)")
		all     = flag.Bool("all", false, "regenerate every table and figure")
		scale   = flag.String("scale", "small", "dataset tier: small | medium | full")
		timeout = flag.Duration("timeout", 5*time.Second, "per-execution timeout (paper: 30m)")
		repeats = flag.Int("repeats", 1, "executions per cell (paper: 3, averaging the last 2)")
		workers = flag.Int("workers", 0, "worker pool size (0 = all cores)")
		backend = flag.String("backend", "", "index backend for lftj/ms: flat | csr (empty = csr)")
		seed    = flag.Int64("seed", 1, "random sample seed")
	)
	flag.Parse()
	if *table == 0 && *figure == 0 {
		*all = true
	}
	if _, err := core.ParseBackend(*backend); err != nil {
		log.Fatal(err)
	}

	h := bench.NewHarness(bench.Config{
		Out:        os.Stdout,
		Timeout:    *timeout,
		Scale:      *scale,
		Repeats:    *repeats,
		Workers:    *workers,
		Backend:    *backend,
		SampleSeed: *seed,
	})

	fmt.Printf("benchtables: scale=%s timeout=%v repeats=%d\n", *scale, *timeout, *repeats)
	fmt.Println("datasets are synthetic SNAP stand-ins (DESIGN.md §5); scaled entries:")
	for _, s := range dataset.Catalog() {
		if s.ScaleDiv > 1 {
			fmt.Printf("  %-18s %d nodes / %d edges (paper: %d / %d, scale 1/%d)\n",
				s.Name, s.Nodes, s.Edges, s.PaperNodes, s.PaperEdges, s.ScaleDiv)
		}
	}

	run := func(name string, f func() error) {
		start := time.Now()
		if err := f(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Printf("[%s done in %v]\n", name, time.Since(start).Round(time.Millisecond))
	}

	tables := map[int]func() error{
		1: h.Table1, 2: h.Table2, 3: h.Table3, 4: h.Table4,
		5: h.Table5, 6: h.Table6, 7: h.Table7,
	}
	figures := map[int]func() error{
		3: func() error { return h.FigurePathScaling(3) },
		4: func() error { return h.FigurePathScaling(4) },
		5: func() error { return h.FigurePathScaling(5) },
		6: func() error { return h.FigureCliqueScaling(6) },
		7: func() error { return h.FigureCliqueScaling(7) },
	}

	switch {
	case *all:
		for i := 1; i <= 7; i++ {
			run(fmt.Sprintf("table %d", i), tables[i])
		}
		for i := 3; i <= 7; i++ {
			run(fmt.Sprintf("figure %d", i), figures[i])
		}
	case *table != 0:
		f, ok := tables[*table]
		if !ok {
			log.Fatalf("no table %d (tables are 1-7)", *table)
		}
		run(fmt.Sprintf("table %d", *table), f)
	case *figure != 0:
		f, ok := figures[*figure]
		if !ok {
			log.Fatalf("no figure %d (figures are 3-7)", *figure)
		}
		run(fmt.Sprintf("figure %d", *figure), f)
	}
}
