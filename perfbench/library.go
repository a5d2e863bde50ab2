package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"vdbscan"
	"vdbscan/internal/data"
	"vdbscan/internal/dataio"
	"vdbscan/internal/dbscan"
	"vdbscan/internal/tec"
)

// Workload sizes. sw1-variants is the paper's S2 sweep (three ε values
// times eight minpts) on an SW1-like TEC field; dense-single is one exact
// variant with about 600 neighbours per point on a cF set, the regime where
// the parallel runner retains every core point's neighbourhood.
const (
	sw1TilePoints = 23_308 // SW1 at 1/80 of its size, per tile
	denseN        = 300_000
	denseEps      = 0.78
	denseMinPts   = 4
	setupReps     = 8  // index builds per run at least; setup_s is their median
	reindexReps   = 16 // re-index builds with one appended batch, at least
	labelsReps    = 3  // labels files written after each call
	appendBatchN  = 512
	libraryThread = 2
)

// repsSeconds is the least time the setup and re-index builds each take
// in all: a build much shorter than it is repeated until its median spans
// that long, so a burst of load on the host moves it less.
const repsSeconds = 2.0

// How much of the field's randomness one run averages over. How many
// points VariantDBSCAN can reuse, and so the cost of a sweep, depends on the
// field's structure: one SW1-like draw costs up to 25% more or less than
// another. An SW1-like point set is therefore sw1Tiles independent fields
// side by side in longitude, and sw1-variants sweeps sw1Sets such sets in
// turn, so that a run's median averages over sixteen field draws.
const (
	sw1Tiles = 4
	sw1Sets  = 4
)

// sw1Field generates SW1-like TEC points for a seed: sw1Tiles fields of
// n/sw1Tiles points with SW1's activity level (tec.SW(1) uses the same
// wave, storm and site counts), tile k shifted by 360°·k. t is the field
// epoch in hours.
func sw1Field(n int, seed uint64, t float64) ([]vdbscan.Point, error) {
	pts := make([]vdbscan.Point, 0, n)
	for k := 0; k < sw1Tiles; k++ {
		ds, err := tec.Simulate(tec.Config{N: n / sw1Tiles, Seed: seed*sw1Tiles + uint64(k), Waves: 6, Storms: 3, Sites: 40, Time: t, Name: "SW1"})
		if err != nil {
			return nil, err
		}
		for _, p := range ds.Points {
			pts = append(pts, vdbscan.Point{X: p.X + 360*float64(k), Y: p.Y})
		}
	}
	return pts, nil
}

// sw1EpsFactor scales unit-size ε values to an SW1-like set of n points
// the way the experiment suite scales them: by 1/√scale, where scale is
// one tile's share of SW1's size, so each ε-disc holds as many points as
// at full size.
func sw1EpsFactor(n int) float64 {
	return 1 / math.Sqrt(float64(n)/sw1Tiles/float64(tec.PaperSize(1)))
}

// sw1Variants is the S2 variant set: ε ∈ {0.2, 0.4, 0.6}·sw1EpsFactor,
// minpts ∈ {4, 8, …, 32}.
func sw1Variants(n int) ([]vdbscan.Params, []float64) {
	f := sw1EpsFactor(n)
	eps := []float64{0.2 * f, 0.4 * f, 0.6 * f}
	return vdbscan.CartesianVariants(eps, []int{4, 8, 12, 16, 20, 24, 28, 32}), eps
}

// libraryCall is one timed clustering call of a library workload.
type libraryCall struct {
	iter   int // the loop iteration that made the call
	secs   float64
	work   vdbscan.Work
	traced bool
	spans  []obsSpan           // traced calls only
	run    *vdbscan.VariantRun // ClusterVariants calls only
	res    *vdbscan.Clustering // Cluster calls only
}

// setupIndex builds an index over every point set, at least setupReps
// builds in all for at least repsSeconds, taken round-robin (setup_s is
// their median), then re-indexes the sets plus one appended batch the same
// way, at least reindexReps times (append_p50_s: a library caller adds
// points to an immutable Index by re-indexing). Every build starts from a
// collected heap.
func (b *bench) setupIndex(sets [][]vdbscan.Point, extra []vdbscan.Point, opts ...vdbscan.IndexOption) []*vdbscan.Index {
	ixs := make([]*vdbscan.Index, len(sets))
	var setup []float64
	for i := 0; i < max(setupReps, len(sets)) || i%len(sets) != 0 || sum(setup) < repsSeconds; i++ {
		runtime.GC()
		t := time.Now()
		ixs[i%len(sets)] = vdbscan.NewIndex(sets[i%len(sets)], opts...)
		end := time.Now()
		setup = append(setup, end.Sub(t).Seconds())
		b.spans.add(-1-i, 0, "vdbscan.NewIndex", t, end)
		b.op(nil, "NewIndex")
	}
	logDist("NewIndex", setup)
	b.set("setup_s", median(setup))
	grown := make([][]vdbscan.Point, len(sets))
	for i, s := range sets {
		grown[i] = append(append([]vdbscan.Point(nil), s...), extra...)
	}
	var re []float64
	for i := 0; i < reindexReps || i%len(sets) != 0 || sum(re) < repsSeconds; i++ {
		runtime.GC()
		t := time.Now()
		vdbscan.NewIndex(grown[i%len(grown)], opts...)
		end := time.Now()
		re = append(re, end.Sub(t).Seconds())
		b.spans.add(-1-len(setup)-i, 0, "vdbscan.NewIndex", t, end)
		b.op(nil, "NewIndex with an appended batch")
	}
	logDist("NewIndex with an appended batch", re)
	b.set("append_p50_s", median(re))
	return ixs
}

// loop runs call in a closed loop for the run's seconds after one warm-up
// call (the first call builds lazy state such as the cell grid). Each call
// starts from a collected heap, so the previous call's garbage neither
// slows it nor lifts the peak RSS it reaches. Call i works on point set
// i mod sets. On a traced run every other round over the sets records obs
// and benchmark spans, so the traced and untraced halves, which cover the
// same sets, give the tracing overhead; a traced run makes at least one
// round of each. After each call labelsReps labels files are written as
// CSV with the encoder the service uses (labels_p50_s). Then check is called on the call. The loop keeps the
// clusterings of the first call only, so that a run's peak RSS does not
// grow with the number of calls it makes.
//
// A job is one variant: its time runs from the call's start, when every
// variant is submitted, to the moment its result is complete — the call's
// end for Cluster, the variant's End offset for ClusterVariants.
func (b *bench) loop(name string, sets int, call func(i int, tr *vdbscan.Tracer, w *vdbscan.Work) (*vdbscan.VariantRun, *vdbscan.Clustering, error), check func(c libraryCall)) ([]libraryCall, error) {
	if _, _, err := call(0, nil, nil); !b.op(err, name) {
		return nil, fmt.Errorf("warm-up %s: %w", name, err)
	}
	var calls []libraryCall
	var labels, jobs []float64
	var buf bytes.Buffer
	start := time.Now()
	for i := 0; b.remaining(start) || (b.traced && i < 2*sets); i++ {
		traced := b.traced && (i/sets)%2 == 0
		var tr *vdbscan.Tracer
		if traced {
			tr = vdbscan.NewTracer()
		}
		var w vdbscan.Work
		runtime.GC()
		t := time.Now()
		run, res, err := call(i, tr, &w)
		end := time.Now()
		if !b.op(err, name) {
			continue
		}
		c := libraryCall{iter: i, secs: end.Sub(t).Seconds(), work: w, traced: traced, run: run, res: res}
		if traced {
			c.spans = obsSpans(tr.Events())
			id := b.spans.add(i+1, 0, "vdbscan."+name, t, end)
			b.spans.addObs(i+1, id, t, c.spans)
		}
		switch {
		case traced:
		case run != nil:
			for _, v := range run.Results {
				jobs = append(jobs, v.End.Seconds())
			}
		default:
			jobs = append(jobs, c.secs)
		}

		for k := 0; k < labelsReps; k++ {
			out := res
			if run != nil {
				out = run.Results[(i*labelsReps+k)%len(run.Results)].Clustering
			}
			buf.Reset()
			t = time.Now()
			err = dataio.WriteLabelsCSV(&buf, out)
			end = time.Now()
			if b.op(err, "WriteLabelsCSV") {
				labels = append(labels, end.Sub(t).Seconds())
				if traced {
					b.spans.add(i+1, 0, "dataio.WriteLabelsCSV", t, end)
				}
			}
		}
		check(c)
		if len(calls) > 0 {
			c.res = nil
			if run != nil {
				for v := range run.Results {
					run.Results[v].Clustering = nil
				}
			}
		}
		calls = append(calls, c)
	}
	el := time.Since(start).Seconds()
	if len(calls) == 0 {
		return nil, fmt.Errorf("no %s call succeeded", name)
	}
	var untraced, traced []float64
	for _, c := range calls {
		if !c.traced {
			untraced = append(untraced, c.secs)
		} else {
			traced = append(traced, c.secs)
		}
	}
	logf("%s: %d calls in %.1fs", name, len(calls), el)
	logDist(name, append(append([]float64(nil), untraced...), traced...))
	logDist("labels", labels)
	logDist("jobs", jobs)
	if b.traced {
		b.set("trace.overhead_frac", median(traced)/median(untraced)-1)
		return calls, nil
	}
	b.set("run_s", median(untraced))
	b.set("job_p50_s", median(jobs))
	b.set("job_p90_s", quantile(jobs, 0.9))
	b.set("jobs_per_s", float64(len(jobs))/el)
	b.set("labels_p50_s", median(labels))
	return calls, nil
}

// tracedPhases sums each phase's busy seconds per traced call and reports
// the median across calls under the dbscan and core metric names.
func (b *bench) tracedPhases(calls []libraryCall) {
	per := map[string][]float64{}
	for _, c := range calls {
		if !c.traced {
			continue
		}
		ps := phaseSeconds(c.spans)
		for _, name := range []string{"dbscan.mark", "dbscan.link", "dbscan.label", "dbscan.border",
			"dbscan.tile_run", "dbscan.tile_merge", "core.expand", "core.scratch"} {
			per[name] = append(per[name], ps[name])
		}
	}
	for name, xs := range per {
		b.set(name+"_s", median(xs))
	}
}

// workCounts reports the median ε-search counts across calls.
func (b *bench) workCounts(calls []libraryCall) {
	var s, c, n, pr, cr, cd []float64
	for _, x := range calls {
		s = append(s, float64(x.work.NeighborSearches))
		c = append(c, float64(x.work.CandidatesExamined))
		n = append(n, float64(x.work.NeighborsFound))
		pr = append(pr, float64(x.work.PointsReused))
		cr = append(cr, float64(x.work.ClustersReused))
		cd = append(cd, float64(x.work.ClustersDestroyed))
	}
	b.set("dbscan.searches", median(s))
	b.set("dbscan.candidates", median(c))
	b.set("dbscan.neighbors", median(n))
	b.set("dbscan.searches_spread_frac", spreadFrac(s))
	b.set("core.points_reused", median(pr))
	b.set("core.clusters_reused", median(cr))
	b.set("core.clusters_destroyed", median(cd))
}

// ---- sw1-variants ------------------------------------------------------

func runSW1Variants(b *bench) error {
	sets := make([][]vdbscan.Point, sw1Sets)
	for i := range sets {
		var err error
		if sets[i], err = sw1Field(sw1Tiles*sw1TilePoints, b.seed*sw1Sets+uint64(i), 0); err != nil {
			return err
		}
	}
	extra, err := sw1Field(appendBatchN, b.seed^0xa99e17d, 1)
	if err != nil {
		return err
	}
	params, eps := sw1Variants(len(sets[0]))
	logf("sw1-variants: %d sets of %d points, %d variants", len(sets), len(sets[0]), len(params))
	if b.traced {
		if err := b.probeLayers(sets[0], eps[1], eps[len(eps)-1]); err != nil {
			return err
		}
	}
	ixs := b.setupIndex(sets, extra)
	first := map[int][][2]int{} // per set: each variant's cluster and noise counts
	calls, err := b.loop("ClusterVariants", len(ixs), func(i int, tr *vdbscan.Tracer, w *vdbscan.Work) (*vdbscan.VariantRun, *vdbscan.Clustering, error) {
		r, err := ixs[i%len(ixs)].ClusterVariants(params, vdbscan.WithThreads(libraryThread), vdbscan.WithTracer(tr), vdbscan.WithWork(w))
		return r, nil, err
	}, func(c libraryCall) {
		// Every call on a set must give each variant the same cluster
		// and noise counts as the first call on that set.
		set := c.iter % len(ixs)
		counts := make([][2]int, len(c.run.Results))
		for v, r := range c.run.Results {
			counts[v] = [2]int{r.Clustering.NumClusters, r.Clustering.NumNoise()}
		}
		want, ok := first[set]
		if !ok {
			first[set] = counts
			return
		}
		for v, r := range c.run.Results {
			b.check(counts[v] == want[v], "set %d variant %v: %d clusters / %d noise, first call had %d / %d",
				set, r.Params, counts[v][0], counts[v][1], want[v][0], want[v][1])
		}
	})
	if err != nil {
		return err
	}

	// Every variant of the first call on the first set must be a DBSCAN
	// clustering of its own parameters, reused or not. The ε values are
	// checked on libraryThread goroutines.
	run0 := calls[0].run
	dix := dbscan.BuildIndex(sets[calls[0].iter%len(ixs)], dbscan.IndexOptions{SkipHigh: true})
	next := make(chan float64, len(eps))
	for _, e := range eps {
		next <- e
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < libraryThread; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for e := range next {
				var minPts []int
				var cs []*vdbscan.Clustering
				for _, r := range run0.Results {
					if r.Params.Eps == e {
						minPts = append(minPts, r.Params.MinPts)
						cs = append(cs, r.Clustering)
					}
				}
				msg := dbscanViolation(dix, e, minPts, cs)
				b.check(msg == "", "%s", msg)
			}
		}()
	}
	wg.Wait()

	if !b.traced {
		return nil
	}

	// Border points within ε of two clusters may go to either, so a reused
	// variant can differ from plain DBSCAN in them. How much is reported,
	// not checked: per ε, the variant that reused the most is scored
	// against plain DBSCAN with the paper's §V-D per-point quality.
	quality := []float64{}
	for _, e := range eps {
		best := -1
		for v, r := range run0.Results {
			if r.Params.Eps == e && (best < 0 || r.FractionReused > run0.Results[best].FractionReused) {
				best = v
			}
		}
		r := run0.Results[best]
		ref, err := ixs[calls[0].iter%len(ixs)].Cluster(r.Params, vdbscan.WithThreads(1))
		if !b.op(err, "plain DBSCAN reference") {
			continue
		}
		q, err := vdbscan.Quality(ref, r.Clustering)
		if b.op(err, "Quality") {
			logf("variant %v (reused %.3f): quality %.5f against plain DBSCAN", r.Params, r.FractionReused, q)
			quality = append(quality, q)
		}
	}
	b.set("core.quality_min", quantile(quality, 0))
	// Work counts and reuse vary with the set, so their median and spread
	// come from the calls on the first set only: the spread then shows how
	// much they depend on the order the two workers finish variants in.
	var set0 []libraryCall
	var reused []float64
	for _, c := range calls {
		if c.iter%len(ixs) == 0 {
			set0 = append(set0, c)
			reused = append(reused, c.run.MeanFractionReused())
		}
	}
	b.workCounts(set0)
	b.set("core.frac_reused", median(reused))
	b.set("core.frac_reused_spread", quantile(reused, 1)-quantile(reused, 0))
	b.tracedPhases(calls)
	var total, idle, scratch, slow []float64
	for _, c := range calls {
		r := c.run
		tw := r.TotalWork.Seconds()
		total = append(total, tw)
		idle = append(idle, 1-tw/(float64(r.Threads)*r.Makespan.Seconds()))
		slow = append(slow, r.Makespan.Seconds()/(tw/float64(r.Threads)))
		n := 0
		for _, v := range r.Results {
			if v.FromScratch {
				n++
			}
		}
		scratch = append(scratch, float64(n)/float64(len(r.Results)))
	}
	b.set("sched.total_work_s", median(total))
	b.set("sched.idle_frac", median(idle))
	b.set("sched.from_scratch_frac", median(scratch))
	b.set("sched.slowdown_over_lower_bound", median(slow))

	// At one thread the schedule is fixed, so the work counts must repeat
	// exactly.
	var one [2]vdbscan.Work
	for i := range one {
		_, err := ixs[0].ClusterVariants(params, vdbscan.WithThreads(1), vdbscan.WithWork(&one[i]))
		if !b.op(err, "ClusterVariants at one thread") {
			return nil
		}
	}
	b.check(one[0] == one[1], "one-thread work counts differ: %v vs %v", one[0], one[1])
	b.set("dbscan.searches_1t", float64(one[0].NeighborSearches))
	b.set("dbscan.candidates_1t", float64(one[0].CandidatesExamined))
	b.set("dbscan.neighbors_1t", float64(one[0].NeighborsFound))
	return nil
}

// ---- dense-single ------------------------------------------------------

func runDenseSingle(b *bench) error {
	ds, err := data.Generate(data.SynthConfig{Class: data.ClassCF, N: denseN, NoiseFrac: 0.05, Seed: b.seed})
	if err != nil {
		return err
	}
	extra, err := data.Generate(data.SynthConfig{Class: data.ClassCF, N: appendBatchN, NoiseFrac: 0.05, Seed: b.seed ^ 0xa99e17d})
	if err != nil {
		return err
	}
	p := vdbscan.Params{Eps: denseEps, MinPts: denseMinPts}
	logf("dense-single: %d points, %v", len(ds.Points), p)
	if b.traced {
		if err := b.probeLayers(ds.Points, denseEps, denseEps); err != nil {
			return err
		}
	}
	ix := b.setupIndex([][]vdbscan.Point{ds.Points}, extra.Points, vdbscan.WithIndexKind(vdbscan.IndexGrid))[0]
	// The parallel runner promises labels byte-identical to sequential
	// DBSCAN on the same index, and the same work counts on every call.
	seq, err := ix.Cluster(p, vdbscan.WithThreads(1))
	seqOK := b.op(err, "sequential Cluster")
	var first *vdbscan.Work
	calls, err := b.loop("Cluster", 1, func(_ int, tr *vdbscan.Tracer, w *vdbscan.Work) (*vdbscan.VariantRun, *vdbscan.Clustering, error) {
		c, err := ix.Cluster(p, vdbscan.WithThreads(libraryThread), vdbscan.WithTracer(tr), vdbscan.WithWork(w))
		return nil, c, err
	}, func(c libraryCall) {
		if seqOK {
			b.check(sameLabels(c.res, seq), "labels at %d threads differ from sequential DBSCAN", libraryThread)
		}
		if first == nil {
			first = &c.work
			return
		}
		b.check(c.work == *first, "work counts differ across calls: %v vs %v", c.work, *first)
	})
	if err != nil {
		return err
	}

	if b.traced {
		b.tracedPhases(calls)
		b.workCounts(calls)
	}
	return nil
}

func sameLabels(a, b *vdbscan.Clustering) bool {
	if a.NumClusters != b.NumClusters || len(a.Labels) != len(b.Labels) {
		return false
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			return false
		}
	}
	return true
}
