package main

import (
	"fmt"
	"sort"
)

// Reference answers, computed by brute force over the benchmark's own edge
// lists and never through the program.

// adjacency returns sorted neighbour lists: out[u] holds every v with an
// edge (u, v) in edges (taken as given, not symmetrised).
func adjacency(n int, edges [][2]int64) [][]int64 {
	out := make([][]int64, n)
	for _, e := range edges {
		out[e[0]] = append(out[e[0]], e[1])
	}
	for _, l := range out {
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
	}
	return out
}

func both(edges [][2]int64) [][2]int64 {
	out := make([][2]int64, 0, 2*len(edges))
	for _, e := range edges {
		out = append(out, e, [2]int64{e[1], e[0]})
	}
	return out
}

// refAnalytic returns the expected Count of every analytic op.
func refAnalytic(in *analyticInput) map[string]int64 {
	n := in.g.n
	fwd := adjacency(n, in.g.edges) // u < v
	sym := adjacency(n, both(in.g.edges))
	mark := make([]int32, n) // mark[w] == stamp: w is in the current set
	stamp := int32(0)
	var tri, clique4 int64
	for a := 0; a < n; a++ {
		stamp++
		for _, b := range fwd[a] {
			mark[b] = stamp
		}
		for _, b := range fwd[a] {
			// c ranges over fwd(a) ∩ fwd(b); for 4-cliques d must lie in
			// fwd(a) ∩ fwd(b) ∩ fwd(c).
			var common []int64
			for _, c := range fwd[b] {
				if mark[c] == stamp {
					common = append(common, c)
				}
			}
			tri += int64(len(common))
			for i, c := range common {
				for _, d := range common[i+1:] {
					if contains(fwd[c], d) {
						clique4++
					}
				}
			}
		}
	}
	in1 := make([]bool, n)
	for _, v := range in.v1 {
		in1[v] = true
	}
	in2 := make([]bool, n)
	for _, v := range in.v2 {
		in2[v] = true
	}
	n1 := make([]int64, n) // |N(b) ∩ v1|
	n2 := make([]int64, n) // |N(c) ∩ v2|
	for u := 0; u < n; u++ {
		for _, w := range sym[u] {
			if in1[w] {
				n1[u]++
			}
			if in2[w] {
				n2[u]++
			}
		}
	}
	var path3 int64
	for b := 0; b < n; b++ {
		for _, c := range sym[b] {
			path3 += n1[b] * n2[c]
		}
	}
	var proj2 int64
	for a := 0; a < n; a++ {
		stamp++
		for _, b := range fwd[a] {
			for _, c := range fwd[b] {
				if mark[c] != stamp {
					mark[c] = stamp
					proj2++
				}
			}
		}
	}
	return map[string]int64{"tri": tri, "clique4": clique4, "path3": path3, "proj2": proj2}
}

func contains(sorted []int64, v int64) bool {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= v })
	return i < len(sorted) && sorted[i] == v
}

// serveModel answers the serve queries from an oriented edge list.
type serveModel struct {
	sym [][]int64
}

func newServeModel(n int, edges [][2]int64) *serveModel {
	return &serveModel{sym: adjacency(n, both(edges))}
}

// rows is q(b,c) :- edge(k,b), edge(b,c), as a sorted set.
func (m *serveModel) rows(k int64) [][]int64 {
	var out [][]int64
	for _, b := range m.sym[k] {
		for _, c := range m.sym[b] {
			out = append(out, []int64{b, c})
		}
	}
	sortTuples(out)
	return out
}

// agg is q(b, count(c)) :- edge(k,b), edge(b,c), sorted by b.
func (m *serveModel) agg(k int64) [][]int64 {
	var out [][]int64
	for _, b := range m.sym[k] {
		out = append(out, []int64{b, int64(len(m.sym[b]))})
	}
	sortTuples(out)
	return out
}

func sameTuples(got, want [][]int64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d tuples, want %d", len(got), len(want))
	}
	for i := range got {
		if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
			return fmt.Errorf("tuple %d is %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}
