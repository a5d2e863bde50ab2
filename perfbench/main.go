// Command perfbench is the repository benchmark. One invocation builds one
// workload from a seed, drives the library facade (vdbscan.NewIndex,
// Index.Cluster, Index.ClusterVariants) or the service (an in-process
// internal/server handler under httptest, reached through the client
// package), checks the outputs, and prints one JSON line:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// also records spans around every call into a layer and prints the
// per-layer metrics instead. Run it through run.sh, which builds it first.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the library or the service sees. Every
// workload reports all of them (see BENCHMARK.json for what each means on a
// library workload versus the service).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"jobs_per_s", "1/s"},
	{"job_p50_s", "s"},
	{"job_p90_s", "s"},
	{"labels_p50_s", "s"},
	{"append_p50_s", "s"},
	{"peak_rss_mib", "MiB"},
	{"success_frac", "frac"},
}

// perLayer are the traced run's metrics, named <module>.<metric>. A layer
// that does no work on a workload reports 0.
var perLayer = []metricDef{
	{"kernel.ns_per_candidate_cached", "ns"},
	{"kernel.ns_per_candidate_stream", "ns"},
	{"kernel.bytes_per_candidate_computed", "B"},
	{"kernel.gbps_computed", "GB/s"},
	{"kernel.roofline_frac", "frac"},
	{"kernel.run_len", "count"},
	{"kernel.cached_mib", "MiB"},
	{"kernel.stream_mib", "MiB"},
	{"kernel.llc_mib", "MiB"},
	{"mem.copy_gbps", "GB/s"},
	{"gridindex.freeze_s", "s"},
	{"gridindex.ns_per_query", "ns"},
	{"gridindex.candidates_per_query", "count"},
	{"gridindex.hit_ratio", "frac"},
	{"rtree.build_s", "s"},
	{"rtree.ns_per_query", "ns"},
	{"rtree.nodes_per_query", "count"},
	{"rtree.candidates_per_query", "count"},
	{"rtree.hit_ratio", "frac"},
	{"dbscan.mark_s", "s"},
	{"dbscan.link_s", "s"},
	{"dbscan.label_s", "s"},
	{"dbscan.border_s", "s"},
	{"dbscan.tile_run_s", "s"},
	{"dbscan.tile_merge_s", "s"},
	{"dbscan.searches", "count"},
	{"dbscan.candidates", "count"},
	{"dbscan.neighbors", "count"},
	{"dbscan.searches_spread_frac", "frac"},
	{"dbscan.searches_1t", "count"},
	{"dbscan.candidates_1t", "count"},
	{"dbscan.neighbors_1t", "count"},
	{"core.frac_reused", "frac"},
	{"core.frac_reused_spread", "frac"},
	{"core.quality_min", "frac"},
	{"core.points_reused", "count"},
	{"core.clusters_reused", "count"},
	{"core.clusters_destroyed", "count"},
	{"core.expand_s", "s"},
	{"core.scratch_s", "s"},
	{"sched.total_work_s", "s"},
	{"sched.idle_frac", "frac"},
	{"sched.from_scratch_frac", "frac"},
	{"sched.slowdown_over_lower_bound", "ratio"},
	{"server.upload_s", "s"},
	{"server.queue_wait_p50_s", "s"},
	{"server.run_p50_s", "s"},
	{"server.jobs_per_batch", "count"},
	{"server.refreezes", "count"},
	{"server.refreeze_s", "s"},
	{"server.labels_bytes", "B"},
	{"persist.snapshot_write_s", "s"},
	{"vdbscan.self_s", "s"},
	{"sched.self_s", "s"},
	{"core.self_s", "s"},
	{"dbscan.self_s", "s"},
	{"dataio.self_s", "s"},
	{"server.self_s", "s"},
	{"trace.overhead_frac", "frac"},
	{"trace.spans", "count"},
}

// selfLayers are the layers whose self time the traced run reports; span
// names start with one of them.
var selfLayers = []string{"vdbscan", "sched", "core", "dbscan", "dataio", "server"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one invocation's state. Operation counts and check outcomes are
// updated from several goroutines on the service workload.
type bench struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	outDir  string
	t0      time.Time

	mu        sync.Mutex
	attempted int
	failed    int
	broken    bool // an output check failed
	values    map[string]float64

	spans *spanLog // nil unless traced
}

var workloads = map[string]func(*bench) error{
	"sw1-variants": runSW1Variants,
	"dense-single": runDenseSingle,
	"serve-mixed":  runServeMixed,
}

func main() {
	workload := flag.String("workload", "", "workload name (sw1-variants, dense-single, serve-mixed)")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "length of the measured loop")
	trace := flag.Int("trace", 0, "1 records spans and prints per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for span files and server data")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n",
			*workload, *seconds, *trace)
		os.Exit(2)
	}
	b := &bench{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		outDir:  *out,
		t0:      time.Now(),
		values:  map[string]float64{},
	}
	if b.traced {
		b.spans = newSpanLog(b.t0)
	}
	if err := run(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if b.traced {
		for layer, s := range b.spans.selfTimes() {
			b.set(layer+".self_s", s)
		}
		b.set("trace.spans", float64(b.spans.len()))
		path := filepath.Join(b.outDir, "spans", fmt.Sprintf("%s-seed%d.json", *workload, *seed))
		if err := b.spans.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		logf("spans written to %s", path)
	} else {
		b.set("peak_rss_mib", peakRSSMiB())
		b.mu.Lock()
		b.values["success_frac"] = 1 - float64(b.failed)/float64(max(b.attempted, 1))
		b.mu.Unlock()
	}
	res, err := b.result()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result assembles the output for the run's mode. A metric the workload
// set that is not declared, an end-to-end metric it did not set, or a
// value that is not a finite number is a bug in the benchmark and fails
// the run.
func (b *bench) result() (result, error) {
	defs := endToEnd
	if b.traced {
		defs = perLayer
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	declared := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		declared[d.name] = true
	}
	for name := range b.values {
		if !declared[name] {
			return result{}, fmt.Errorf("metric %s is not declared", name)
		}
	}
	res := result{
		Correct:   !b.broken,
		Attempted: max(b.attempted, 1),
		Failed:    b.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range defs {
		v, ok := b.values[d.name]
		if !ok && !b.traced {
			return result{}, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res, nil
}

func (b *bench) set(name string, v float64) {
	b.mu.Lock()
	b.values[name] = v
	b.mu.Unlock()
}

// op counts one attempted operation and reports whether it succeeded.
func (b *bench) op(err error, what string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err != nil {
		b.failed++
		logf("FAILED %s: %v", what, err)
		return false
	}
	return true
}

// check counts one output check; a failed check marks the run incorrect
// and counts as a failed operation.
func (b *bench) check(ok bool, format string, args ...any) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if !ok {
		b.failed++
		b.broken = true
		logf("CHECK FAILED: "+format, args...)
	}
	return ok
}

// remaining reports whether the measured loop that started at start still
// has time left.
func (b *bench) remaining(start time.Time) bool { return time.Since(start) < b.seconds }

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// ---- statistics ----------------------------------------------------------

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// spreadFrac is (max-min)/median, the relative range of a sample.
func spreadFrac(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (quantile(xs, 1) - quantile(xs, 0)) / m
}

// logDist prints a sample's size and quartiles to standard error.
func logDist(name string, xs []float64) {
	logf("%s: n=%d min %.4g q1 %.4g median %.4g q3 %.4g max %.4g", name, len(xs),
		quantile(xs, 0), quantile(xs, 0.25), median(xs), quantile(xs, 0.75), quantile(xs, 1))
}

// timeIt runs f n times and returns the median wall time in seconds.
func timeIt(n int, f func()) float64 {
	ts := make([]float64, n)
	for i := range ts {
		t := time.Now()
		f()
		ts[i] = time.Since(t).Seconds()
	}
	return median(ts)
}

// peakRSSMiB is the process's VmHWM (peak resident set size) in MiB.
func peakRSSMiB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}
