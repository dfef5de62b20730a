// Package graphalgo implements the "more graph-style processing" the
// paper's conclusion names as future work for the benchmark (§6: "BFS,
// shortest path, page rank"): classic traversal and ranking algorithms over
// the same edge relation the join engines consume. It demonstrates that the
// relational substrate serves both join processing and navigational
// workloads — the unification the paper argues for.
package graphalgo

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/query"
)

// Adjacency is a compact adjacency list over the symmetric edge relation.
type Adjacency struct {
	N   int
	adj map[int64][]int64
}

// BuildAdjacency reads the "edge" relation from the database.
func BuildAdjacency(db *core.DB) (*Adjacency, error) {
	edge, err := db.Relation(query.Edge)
	if err != nil {
		return nil, err
	}
	if edge.Arity() != 2 {
		return nil, fmt.Errorf("graphalgo: %s must be binary", query.Edge)
	}
	a := &Adjacency{adj: make(map[int64][]int64)}
	var maxID int64 = -1
	for i := 0; i < edge.Len(); i++ {
		u, v := edge.Value(i, 0), edge.Value(i, 1)
		a.adj[u] = append(a.adj[u], v)
		if u > maxID {
			maxID = u
		}
		if v > maxID {
			maxID = v
		}
	}
	a.N = int(maxID + 1)
	return a, nil
}

// BFS returns the hop distance from src to every reachable vertex
// (unreachable vertices are absent).
func (a *Adjacency) BFS(ctx context.Context, src int64) (map[int64]int, error) {
	dist := map[int64]int{src: 0}
	frontier := []int64{src}
	for len(frontier) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var next []int64
		for _, u := range frontier {
			for _, v := range a.adj[u] {
				if _, seen := dist[v]; !seen {
					dist[v] = dist[u] + 1
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	return dist, nil
}

// ShortestPath returns one shortest path between src and dst (inclusive),
// or ok == false when disconnected.
func (a *Adjacency) ShortestPath(ctx context.Context, src, dst int64) (path []int64, ok bool, err error) {
	if src == dst {
		return []int64{src}, true, nil
	}
	parent := map[int64]int64{src: src}
	frontier := []int64{src}
	for len(frontier) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		var next []int64
		for _, u := range frontier {
			for _, v := range a.adj[u] {
				if _, seen := parent[v]; seen {
					continue
				}
				parent[v] = u
				if v == dst {
					// Reconstruct.
					for at := dst; at != src; at = parent[at] {
						path = append(path, at)
					}
					path = append(path, src)
					reverse(path)
					return path, true, nil
				}
				next = append(next, v)
			}
		}
		frontier = next
	}
	return nil, false, nil
}

func reverse(s []int64) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

// ConnectedComponents labels every vertex that appears in the edge relation
// with a component id (smallest member id).
func (a *Adjacency) ConnectedComponents(ctx context.Context) (map[int64]int64, error) {
	comp := make(map[int64]int64, len(a.adj))
	var vertices []int64
	for u := range a.adj {
		vertices = append(vertices, u)
	}
	sort.Slice(vertices, func(i, j int) bool { return vertices[i] < vertices[j] })
	for _, root := range vertices {
		if _, done := comp[root]; done {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		stack := []int64{root}
		comp[root] = root
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range a.adj[u] {
				if _, done := comp[v]; !done {
					comp[v] = root
					stack = append(stack, v)
				}
			}
		}
	}
	return comp, nil
}

// PageRank runs the classic power iteration with uniform teleport over the
// vertices incident to edges. damping is typically 0.85.
func (a *Adjacency) PageRank(ctx context.Context, damping float64, iterations int) (map[int64]float64, error) {
	if damping <= 0 || damping >= 1 {
		return nil, fmt.Errorf("graphalgo: damping %v outside (0,1)", damping)
	}
	n := len(a.adj)
	if n == 0 {
		return map[int64]float64{}, nil
	}
	rank := make(map[int64]float64, n)
	for u := range a.adj {
		rank[u] = 1 / float64(n)
	}
	for it := 0; it < iterations; it++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		next := make(map[int64]float64, n)
		base := (1 - damping) / float64(n)
		for u := range a.adj {
			next[u] = base
		}
		for u, nbrs := range a.adj {
			share := damping * rank[u] / float64(len(nbrs))
			for _, v := range nbrs {
				next[v] += share
			}
		}
		rank = next
	}
	return rank, nil
}
