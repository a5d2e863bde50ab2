package main

import (
	"fmt"

	"vdbscan"
	"vdbscan/internal/dbscan"
)

// dbscanViolation checks that each clustering cs[v] is a DBSCAN clustering
// of ix's points under (eps, minPts[v]), and returns a description of the
// first way one is not, or "" when all are:
//
//   - a core point (at least minPts points within eps, itself included)
//     is in a cluster, and every core point within eps is in the same one;
//   - a non-core point is in a cluster only if a core point of that
//     cluster is within eps, and is noise only if no core point is;
//   - the clusters are numbered 1..NumClusters, one per connected
//     component of the core points.
//
// This is what the library promises for every variant, reused or not: the
// same clusters and noise as plain DBSCAN, with a border point that is
// within eps of two clusters in either. Neighbourhoods come from one
// ε-search per point through ix, so the variants of one ε are checked
// together in two passes over the points.
func dbscanViolation(ix *dbscan.Index, eps float64, minPts []int, cs []*vdbscan.Clustering) string {
	n := ix.Len()
	count := make([]int, n)
	var nb []int32
	for i := 0; i < n; i++ {
		nb = ix.NeighborSearch(ix.Pts[i], eps, nil, nb[:0])
		count[i] = len(nb)
	}
	label := func(v int, i int32) int32 { return cs[v].Labels[ix.Fwd[i]] }
	parent := make([][]int32, len(cs))
	for v := range parent {
		parent[v] = make([]int32, n)
		for i := range parent[v] {
			parent[v][i] = int32(i)
		}
	}
	find := func(p []int32, i int32) int32 {
		for p[i] != i {
			p[i] = p[p[i]]
			i = p[i]
		}
		return i
	}
	for i := int32(0); int(i) < n; i++ {
		nb = ix.NeighborSearch(ix.Pts[i], eps, nil, nb[:0])
		for v, m := range minPts {
			li := label(v, i)
			if count[i] >= m {
				if li <= 0 {
					return fmt.Sprintf("variant (%g, %d): core point %d has label %d", eps, m, ix.Fwd[i], li)
				}
				for _, j := range nb {
					if count[j] < m {
						continue
					}
					if lj := label(v, j); lj != li {
						return fmt.Sprintf("variant (%g, %d): core points %d and %d are within eps but labelled %d and %d",
							eps, m, ix.Fwd[i], ix.Fwd[j], li, lj)
					}
					if a, b := find(parent[v], i), find(parent[v], j); a != b {
						parent[v][a] = b
					}
				}
				continue
			}
			core, attached := false, false
			for _, j := range nb {
				if count[j] >= m {
					core = true
					attached = attached || label(v, j) == li
				}
			}
			switch {
			case li == vdbscan.Noise && core:
				return fmt.Sprintf("variant (%g, %d): point %d is within eps of a core point but is noise", eps, m, ix.Fwd[i])
			case li != vdbscan.Noise && !attached:
				return fmt.Sprintf("variant (%g, %d): border point %d has label %d but no core point of that cluster within eps",
					eps, m, ix.Fwd[i], li)
			}
		}
	}
	for v, m := range minPts {
		seen := map[int32]int32{} // label -> root of its core component
		components := 0
		for i := int32(0); int(i) < n; i++ {
			if count[i] < m {
				continue
			}
			r := find(parent[v], i)
			if r == i {
				components++
			}
			l := label(v, i)
			if prev, ok := seen[l]; ok && prev != r {
				return fmt.Sprintf("variant (%g, %d): label %d spans two core components", eps, m, l)
			}
			seen[l] = r
		}
		nc := cs[v].NumClusters
		if components != nc || len(seen) != nc {
			return fmt.Sprintf("variant (%g, %d): %d core components, %d core labels, NumClusters %d",
				eps, m, components, len(seen), nc)
		}
		for l := range seen {
			if l < 1 || int(l) > nc {
				return fmt.Sprintf("variant (%g, %d): label %d outside 1..%d", eps, m, l, nc)
			}
		}
	}
	return ""
}
