package main

import (
	"math/rand"
	"sort"
)

// The benchmark generates every input itself from the --seed argument. The
// graph models mirror the ones in internal/dataset (Barabási–Albert growth by
// preferential attachment, and Holme–Kim, which adds a triad-formation step)
// but are kept here as a copy, so a change to the program cannot move the
// benchmark's inputs.

// graph is an undirected simple graph over vertices 0..n-1; every edge is
// stored once, oriented u < v.
type graph struct {
	n     int
	edges [][2]int64
}

// genAttachment grows a graph by preferential attachment: every new vertex
// links to ~edgeTarget/n targets drawn in proportion to their degree. With
// triadP > 0 each link after the first is followed, with that probability,
// by a link to a random neighbour of the just-chosen target (Holme–Kim).
func genAttachment(rng *rand.Rand, n, edgeTarget int, triadP float64) *graph {
	perVertex := max(edgeTarget/n, 1)
	if perVertex >= n {
		perVertex = n - 1
	}
	seen := make(map[[2]int64]struct{}, edgeTarget)
	g := &graph{n: n}
	var targets []int64 // one entry per edge endpoint: degree-weighted draws
	adj := make(map[int64][]int64, n)
	link := func(u, v int64) {
		if u == v {
			return
		}
		if u > v {
			u, v = v, u
		}
		key := [2]int64{u, v}
		if _, ok := seen[key]; ok {
			return
		}
		seen[key] = struct{}{}
		g.edges = append(g.edges, key)
		targets = append(targets, u, v)
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	}
	for i := 0; i <= perVertex; i++ {
		for j := i + 1; j <= perVertex; j++ {
			link(int64(i), int64(j))
		}
	}
	for v := perVertex + 1; v < n; v++ {
		var prev int64 = -1
		for e := 0; e < perVertex; e++ {
			var t int64
			if len(targets) == 0 {
				t = int64(rng.Intn(v))
			} else {
				t = targets[rng.Intn(len(targets))]
			}
			if t == int64(v) {
				continue
			}
			link(int64(v), t)
			if prev >= 0 && triadP > 0 && rng.Float64() < triadP {
				if nb := adj[t]; len(nb) > 0 {
					if w := nb[rng.Intn(len(nb))]; w != int64(v) {
						link(int64(v), w)
					}
				}
			}
			prev = t
		}
	}
	return g
}

// sample picks each vertex independently with probability 1/s (the paper's
// selectivity protocol), never returning an empty sample.
func sample(rng *rand.Rand, n, s int) []int64 {
	var out []int64
	for v := 0; v < n; v++ {
		if rng.Intn(s) == 0 {
			out = append(out, int64(v))
		}
	}
	if len(out) == 0 {
		out = append(out, int64(rng.Intn(n)))
	}
	return out
}

// symmetric returns both directions of every edge, sorted.
func (g *graph) symmetric() [][]int64 {
	out := make([][]int64, 0, 2*len(g.edges))
	for _, e := range g.edges {
		out = append(out, []int64{e[0], e[1]}, []int64{e[1], e[0]})
	}
	sortTuples(out)
	return out
}

// oriented returns every edge once, u < v, sorted.
func (g *graph) oriented() [][]int64 {
	out := make([][]int64, 0, len(g.edges))
	for _, e := range g.edges {
		out = append(out, []int64{e[0], e[1]})
	}
	sortTuples(out)
	return out
}

func unary(vs []int64) [][]int64 {
	out := make([][]int64, len(vs))
	for i, v := range vs {
		out[i] = []int64{v}
	}
	return out
}

func sortTuples(ts [][]int64) {
	sort.Slice(ts, func(i, j int) bool {
		a, b := ts[i], ts[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}

// Input sizes fixed by the workload definitions.
const (
	analyticNodes      = 3000
	analyticEdgeTarget = 15000
	analyticTriadP     = 0.6
	analyticSampleSel  = 100 // 1% node samples
	serveNodes         = 5000
	serveEdgeTarget    = 25000
	serveZipfS         = 1.1
	checkKeys          = 24 // keys whose answers are checked after a serve run
)

// seedFor derives an independent stream seed for one purpose from the run
// seed, so adding a stream never shifts another one.
func seedFor(seed int64, stream int64) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(stream)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	return int64(x >> 1)
}

const (
	streamGraph int64 = iota + 1
	streamSamples
	streamCheck
	streamClient // + client index
)

// analyticInput is the analytic workload's data: a Holme–Kim graph and two
// 1% vertex samples.
type analyticInput struct {
	g      *graph
	v1, v2 []int64
}

func genAnalytic(seed int64) *analyticInput {
	g := genAttachment(rand.New(rand.NewSource(seedFor(seed, streamGraph))),
		analyticNodes, analyticEdgeTarget, analyticTriadP)
	rng := rand.New(rand.NewSource(seedFor(seed, streamSamples)))
	return &analyticInput{
		g:  g,
		v1: sample(rng, g.n, analyticSampleSel),
		v2: sample(rng, g.n, analyticSampleSel),
	}
}

// genServe makes the serve/routed workload's Barabási–Albert graph. Keys
// and swaps are drawn per client from clientRNG.
func genServe(seed int64) *graph {
	return genAttachment(rand.New(rand.NewSource(seedFor(seed, streamGraph))),
		serveNodes, serveEdgeTarget, 0)
}

// clientRNG is client i's private stream: its op picks, Zipf keys and swaps.
func clientRNG(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(seedFor(seed, streamClient+int64(i))))
}

// keyDraw draws query keys from Zipf(s) over vertex ids: rank k is vertex k,
// and low ids are the preferential-attachment hubs, so hot keys are heavy.
func keyDraw(rng *rand.Rand, n int) func() int64 {
	z := rand.NewZipf(rng, serveZipfS, 1, uint64(n-1))
	return func() int64 { return int64(z.Uint64()) }
}

// checkSample is the fixed key set whose answers are compared with the
// edge-set model after a serve or routed run: the heaviest hubs and a seeded
// spread of ordinary vertices.
func checkSample(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seedFor(seed, streamCheck)))
	keys := []int64{0, 1, 2, 3}
	for len(keys) < checkKeys {
		keys = append(keys, int64(rng.Intn(n)))
	}
	return keys
}

// edgeSlice is the part of the edge space one client owns: oriented edges
// (u, v) with (u+v) mod owners == owner. Clients write only their own slice,
// so each client's model of it stays exact while others write concurrently.
type edgeSlice struct {
	owner, owners int
	n             int
	present       [][2]int64
	index         map[[2]int64]int
}

func newEdgeSlice(g *graph, owner, owners int) *edgeSlice {
	s := &edgeSlice{owner: owner, owners: owners, n: g.n, index: make(map[[2]int64]int)}
	for _, e := range g.edges {
		if s.owns(e) {
			s.index[e] = len(s.present)
			s.present = append(s.present, e)
		}
	}
	return s
}

func (s *edgeSlice) owns(e [2]int64) bool { return int((e[0]+e[1])%int64(s.owners)) == s.owner }

// nextSwap draws a present edge to delete and an absent edge to insert, both
// from the slice. It does not change the slice; commit does, once the write
// is acknowledged.
func (s *edgeSlice) nextSwap(rng *rand.Rand) (del, ins [2]int64) {
	del = s.present[rng.Intn(len(s.present))]
	for {
		u, v := int64(rng.Intn(s.n)), int64(rng.Intn(s.n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		e := [2]int64{u, v}
		if _, ok := s.index[e]; !ok && s.owns(e) {
			return del, e
		}
	}
}

func (s *edgeSlice) commit(del, ins [2]int64) {
	i := s.index[del]
	last := s.present[len(s.present)-1]
	s.present[i] = last
	s.index[last] = i
	s.present = s.present[:len(s.present)-1]
	delete(s.index, del)
	s.index[ins] = len(s.present)
	s.present = append(s.present, ins)
}
