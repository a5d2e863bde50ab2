package main

import (
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"vdbscan/internal/data"
	"vdbscan/internal/dbscan"
	"vdbscan/internal/geom"
	"vdbscan/internal/gridindex"
	"vdbscan/internal/kernel"
	"vdbscan/internal/rtree"
)

// probeQueries caps the ε-searches each index probe times; an evenly
// strided sample of the workload's points keeps the probe to well under a
// second on every workload.
const probeQueries = 50_000

// probeLayers times the index and kernel layers from outside, on the
// workload's own points: the R-tree and the cell grid are built the way
// vdbscan.NewIndex builds them, then searched at eps (the workload's
// typical ε) from a sample of points. gridEps is the ε the grid is sided
// for (a variant set's largest). The kernel's cached run length is the
// grid's mean candidates per query.
func (b *bench) probeLayers(pts []geom.Point, eps, gridEps float64) error {
	ix := dbscan.BuildIndex(pts, dbscan.IndexOptions{SkipHigh: true})
	stride := max(1, len(ix.Pts)/probeQueries)

	// NewIndex builds and freezes two trees: T_low for ε-searches and the
	// one-point-per-leaf T_high for the reuse sweeps.
	b.set("rtree.build_s", timeIt(3, func() {
		rtree.BulkLoad(ix.Pts, rtree.Options{R: dbscan.DefaultR}).CompactWithCoords(ix.X, ix.Y)
		rtree.BulkLoad(ix.Pts, rtree.Options{R: 1}).CompactWithCoords(ix.X, ix.Y)
	}))
	var dst []int32
	var cands, nodes, hits, queries int
	start := time.Now()
	for i := 0; i < len(ix.Pts); i += stride {
		var c, n int
		dst, c, n = ix.FlatLow.EpsSearch(ix.Pts[i], eps, dst[:0])
		cands, nodes, hits, queries = cands+c, nodes+n, hits+len(dst), queries+1
	}
	el := time.Since(start)
	b.set("rtree.ns_per_query", float64(el.Nanoseconds())/float64(queries))
	b.set("rtree.nodes_per_query", float64(nodes)/float64(queries))
	b.set("rtree.candidates_per_query", float64(cands)/float64(queries))
	b.set("rtree.hit_ratio", float64(hits)/float64(cands))

	var g *gridindex.Flat
	var err error
	b.set("gridindex.freeze_s", timeIt(3, func() { g, err = gridindex.Freeze(ix.X, ix.Y, gridEps) }))
	if err != nil {
		return err
	}
	cands, hits, queries = 0, 0, 0
	start = time.Now()
	for i := 0; i < len(ix.Pts); i += stride {
		var c int
		dst, c, _ = g.EpsSearch(ix.Pts[i], eps, dst[:0])
		cands, hits, queries = cands+c, hits+len(dst), queries+1
	}
	el = time.Since(start)
	perQuery := float64(cands) / float64(queries)
	b.set("gridindex.ns_per_query", float64(el.Nanoseconds())/float64(queries))
	b.set("gridindex.candidates_per_query", perQuery)
	b.set("gridindex.hit_ratio", float64(hits)/float64(cands))

	parts := g.Parts()
	runLen := max(1, int(math.Round(perQuery)))
	b.set("kernel.run_len", float64(runLen))
	b.set("kernel.cached_mib", float64(16*len(parts.Xs))/(1<<20))
	b.set("kernel.ns_per_candidate_cached", kernelPass(parts.Xs, parts.Ys, runLen, eps, 200_000_000, b.seed))
	return b.roofline(parts.Xs, parts.Ys, runLen, eps)
}

// kernelPass times kernel.FilterEps over runs of runLen consecutive
// grid-sorted coordinates until about total candidates are filtered, each
// run queried from its middle point, and returns ns per candidate. Runs
// start at seeded random offsets.
func kernelPass(xs, ys []float64, runLen int, eps float64, total int, seed uint64) float64 {
	n := len(xs)
	runLen = min(runLen, n)
	rng := data.NewRNG(seed ^ 0x6b65726e)
	epsSq := eps * eps
	dst := make([]int32, 0, runLen)
	cands := 0
	start := time.Now()
	for cands < total {
		s := 0
		if n > runLen {
			s = rng.IntN(n - runLen)
		}
		m := s + runLen/2
		dst = kernel.FilterEps(dst[:0], xs[s:s+runLen], ys[s:s+runLen], int32(s), xs[m], ys[m], epsSq)
		cands += runLen
	}
	return float64(time.Since(start).Nanoseconds()) / float64(cands)
}

// roofline measures the kernel streaming from memory: FilterEps over
// coordinate arrays four times the last-level cache, walked in order, next
// to the copy bandwidth of the same arrays. The bytes per candidate are
// computed, not measured: two float64 loads plus an int32 store per hit.
func (b *bench) roofline(gx, gy []float64, runLen int, eps float64) error {
	llc, err := lastLevelCacheBytes()
	if err != nil {
		return err
	}
	n := int(4 * llc / 16)
	debug.FreeOSMemory() // return the workload's garbage before allocating
	b.set("kernel.llc_mib", float64(llc)/(1<<20))
	b.set("kernel.stream_mib", float64(16*n)/(1<<20))
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = gx[i%len(gx)]
	}
	copyGbps := float64(2*8*n) / timeIt(3, func() { copy(ys, xs) }) / 1e9
	b.set("mem.copy_gbps", copyGbps)
	for i := range ys {
		ys[i] = gy[i%len(gy)]
	}

	epsSq := eps * eps
	dst := make([]int32, 0, runLen)
	var hits int
	start := time.Now()
	for s := 0; s+runLen <= n; s += runLen {
		m := s + runLen/2
		dst = kernel.FilterEps(dst[:0], xs[s:s+runLen], ys[s:s+runLen], int32(s), xs[m], ys[m], epsSq)
		hits += len(dst)
	}
	el := time.Since(start)
	cands := n - n%runLen
	bytesPerCand := 16 + 4*float64(hits)/float64(cands)
	gbps := bytesPerCand * float64(cands) / el.Seconds() / 1e9
	b.set("kernel.ns_per_candidate_stream", float64(el.Nanoseconds())/float64(cands))
	b.set("kernel.bytes_per_candidate_computed", bytesPerCand)
	b.set("kernel.gbps_computed", gbps)
	b.set("kernel.roofline_frac", gbps/copyGbps)
	debug.FreeOSMemory() // xs and ys are dead; give their pages back
	return nil
}

// lastLevelCacheBytes reads the size of the highest-level CPU cache from
// sysfs, the source lscpu reports.
func lastLevelCacheBytes() (int64, error) {
	dirs, err := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	if err != nil || len(dirs) == 0 {
		return 0, os.ErrNotExist
	}
	var bestLevel, bestSize int64
	for _, d := range dirs {
		lv, err1 := os.ReadFile(filepath.Join(d, "level"))
		sz, err2 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil {
			continue
		}
		level, err := strconv.ParseInt(strings.TrimSpace(string(lv)), 10, 64)
		if err != nil {
			continue
		}
		size, err := parseCacheSize(strings.TrimSpace(string(sz)))
		if err != nil {
			continue
		}
		if level > bestLevel || (level == bestLevel && size > bestSize) {
			bestLevel, bestSize = level, size
		}
	}
	if bestSize == 0 {
		return 0, os.ErrNotExist
	}
	return bestSize, nil
}

// parseCacheSize parses sysfs cache sizes such as "307200K" or "32M".
func parseCacheSize(s string) (int64, error) {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "G"):
		mult, s = 1<<30, strings.TrimSuffix(s, "G")
	}
	v, err := strconv.ParseInt(s, 10, 64)
	return v * mult, err
}
