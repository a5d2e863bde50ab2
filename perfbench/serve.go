package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vdbscan"
	"vdbscan/client"
	"vdbscan/internal/data"
	"vdbscan/internal/dataio"
	"vdbscan/internal/obs/prom"
	"vdbscan/internal/server"
)

// serve-mixed sizes. The upload is an SW1-like set of servePoints; jobs
// are three variants drawn from a seeded pool of eight whose ε ladder sits
// below the sweep's (0.06–0.13 of the unit-scale ε), so a job runs in a few
// hundred milliseconds and a run finishes well over serveMinJobs. The batch
// window is long enough that the two jobs of a round, submitted within
// milliseconds of each other, always coalesce into one run.
// Client 0 appends serveAppendN points after each of its jobs, so the
// default re-freeze threshold (server.DefaultRefreezePoints) is crossed
// several times per run while the other client keeps reading.
const (
	servePoints      = 100_000
	serveClients     = 2
	serveSetupReps   = 5
	serveMinJobs     = 100
	serveAppendN     = 256
	serveAppendMax   = 320 // batches generated up front; appending stops after them
	serveBatchWindow = 100 * time.Millisecond
	serveHardCap     = 120 * time.Second
)

// servePool draws the job pool: an ε ladder with seeded jitter of ±2%,
// minpts cycling through {4, 8, 12, 16} along it. A seeded minpts would
// make one seed's pool much cheaper than another's.
func servePool(seed uint64) []client.Variant {
	rng := data.NewRNG(seed ^ 0x706f6f6c)
	f := sw1EpsFactor(servePoints)
	pool := make([]client.Variant, 8)
	for i := range pool {
		e := (0.06 + 0.01*float64(i)) * f * (1 + 0.04*(rng.Float64()-0.5))
		pool[i] = client.Variant{Eps: e, MinPts: 4 * (1 + i%4)}
	}
	return pool
}

// instance is one in-process service: the server, its httptest listener and
// a client limited to two connections.
type instance struct {
	srv *server.Server
	ts  *httptest.Server
	hc  *http.Client
	c   *client.Client
}

func startInstance(dir string) *instance {
	srv := server.New(server.Config{Threads: libraryThread, Runners: 1, BatchWindow: serveBatchWindow, DataDir: dir})
	ts := httptest.NewServer(srv.Handler())
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: serveClients, MaxIdleConnsPerHost: serveClients}}
	return &instance{srv: srv, ts: ts, hc: hc, c: client.New(ts.URL, client.WithHTTPClient(hc))}
}

// stop drains the server (folding staged appends in), then stops its
// runners, listener and idle connections.
func (in *instance) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := in.srv.Drain(ctx)
	in.srv.Close()
	in.ts.Close()
	in.hc.CloseIdleConnections()
	return err
}

// scrape parses the server's /metrics exposition.
func (in *instance) scrape() (*prom.Exposition, error) {
	resp, err := in.hc.Get(in.ts.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return prom.Parse(resp.Body)
}

// histMean is a histogram family's sum over count across all label sets;
// 0 when nothing was observed.
func histMean(e *prom.Exposition, name string) float64 {
	fam, ok := e.Families[name]
	if !ok {
		return 0
	}
	var sum, count float64
	for _, s := range fam.Samples {
		switch s.Name {
		case name + "_sum":
			sum += s.Value
		case name + "_count":
			count += s.Value
		}
	}
	if count == 0 {
		return 0
	}
	return sum / count
}

func counterValue(e *prom.Exposition, name string) float64 {
	var v float64
	if fam, ok := e.Families[name]; ok {
		for _, s := range fam.Samples {
			v += s.Value
		}
	}
	return v
}

// jobRecord is one finished job as a client saw it.
type jobRecord struct {
	latency, queueWait, run float64
	batchJobs               int
	work                    client.Work
	reused, scratch         float64
	traced                  bool
}

func runServeMixed(b *bench) error {
	pts, err := sw1Field(servePoints, b.seed, 0)
	if err != nil {
		return err
	}
	stream, err := sw1Field(serveAppendN*serveAppendMax, b.seed^0xa99e17d, 1)
	if err != nil {
		return err
	}
	var csv bytes.Buffer
	if err := dataio.WriteCSV(&csv, &data.Dataset{Name: "sw1-serve", Points: pts, NoiseFrac: -1}); err != nil {
		return err
	}
	pool := servePool(b.seed)
	logf("serve-mixed: %d points uploaded, pool %v", len(pts), pool)
	if b.traced {
		if err := b.probeLayers(pts, pool[len(pool)/2].Eps, pool[len(pool)-1].Eps); err != nil {
			return err
		}
	}

	// Set-up: start a server and upload, serveSetupReps times; the last
	// instance serves the traffic. On an error path the deferred call stops
	// whichever instance is still running; the success path stops it first.
	var in *instance
	var dir, dsID string
	defer func() {
		if in != nil {
			in.stop() //nolint:errcheck // already failing; the drain error adds nothing
		}
		os.RemoveAll(dir) //nolint:errcheck // server data under the build directory
	}()
	var setup, upload []float64
	for i := 0; i < serveSetupReps; i++ {
		if in != nil {
			err := in.stop()
			in = nil
			if err != nil {
				return err
			}
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
		dir = filepath.Join(b.outDir, fmt.Sprintf("serve-%d-%d", os.Getpid(), i))
		t := time.Now()
		in = startInstance(dir)
		tu := time.Now()
		ds, err := in.c.UploadCSV(context.Background(), bytes.NewReader(csv.Bytes()), "", nil)
		end := time.Now()
		if !b.op(err, "upload") {
			return fmt.Errorf("upload: %w", err)
		}
		dsID = ds.ID
		b.check(ds.Points == len(pts), "uploaded dataset has %d points, want %d", ds.Points, len(pts))
		setup = append(setup, end.Sub(t).Seconds())
		upload = append(upload, end.Sub(tu).Seconds())
		root := b.spans.add(-1-i, 0, "bench.setup", t, end)
		b.spans.add(-1-i, root, "server.upload", tu, end)
	}
	logDist("server start and upload", setup)
	b.set("setup_s", median(setup))
	b.set("server.upload_s", median(upload))

	before, err := in.scrape()
	if !b.op(err, "scrape /metrics") {
		return err
	}
	var (
		mu       sync.Mutex
		jobs     []jobRecord
		labels   []float64
		lblBytes []float64
		appends  []float64
		appended atomic.Int64 // points sent to the server so far
		done     atomic.Int64
		seq      atomic.Int64
		wg       sync.WaitGroup
	)
	ctx := context.Background()
	start := time.Now()
	rngs := make([]*data.RNG, serveClients)
	for ci := range rngs {
		rngs[ci] = data.NewRNG(b.seed*serveClients + uint64(ci) + 1)
	}
	nextBatch := 0 // client 0's next append batch
	step := func(ci int) {
		rng := rngs[ci]
		id := int(seq.Add(1))
		traced := b.traced && id%2 == 0
		spans := b.spans
		if !traced {
			spans = nil
		}
		req := client.SubmitRequest{Variants: pickVariants(rng, pool, 3)}

		t := time.Now()
		j, err := in.c.Submit(ctx, dsID, req)
		ts := time.Now()
		if !b.op(err, "submit") {
			return
		}
		j, err = in.c.Wait(ctx, j.ID, 30*time.Second)
		tw := time.Now()
		if !b.op(err, "wait") {
			return
		}
		root := spans.add(id, 0, "bench.job", t, tw)
		spans.add(id, root, "server.submit", t, ts)
		spans.add(id, root, "server.wait", ts, tw)
		if !b.check(j.State == "done", "job %s ended %q: %s", j.ID, j.State, j.Error) {
			return
		}
		rec := jobRecord{latency: tw.Sub(t).Seconds(), batchJobs: j.BatchJobs, traced: traced}
		if created, started, finished, err := jobTimes(j); b.op(err, "job times") {
			rec.queueWait = started.Sub(created).Seconds()
			rec.run = finished.Sub(started).Seconds()
		}
		if j.Work != nil {
			rec.work = *j.Work
		}
		for _, r := range j.Results {
			rec.reused += r.FractionReused / float64(len(j.Results))
			if r.FromScratch {
				rec.scratch += 1 / float64(len(j.Results))
			}
		}
		done.Add(1)

		tl := time.Now()
		body, err := in.c.Labels(ctx, j.ID, rng.IntN(len(req.Variants)))
		te := time.Now()
		if b.op(err, "labels") {
			spans.add(id, 0, "server.labels", tl, te)
			rows := labelRows(body)
			hi := len(pts) + int(appended.Load())
			b.check(rows >= len(pts) && rows <= hi, "job %s labels have %d rows, want %d..%d", j.ID, rows, len(pts), hi)
		}
		mu.Lock()
		jobs = append(jobs, rec)
		if err == nil {
			labels = append(labels, te.Sub(tl).Seconds())
			lblBytes = append(lblBytes, float64(len(body)))
		}
		mu.Unlock()

		if ci != 0 || nextBatch == serveAppendMax {
			return
		}
		batch := stream[nextBatch*serveAppendN : (nextBatch+1)*serveAppendN]
		var buf bytes.Buffer
		if err := dataio.WriteCSV(&buf, &data.Dataset{Name: "append", Points: batch, NoiseFrac: -1}); err != nil {
			b.op(err, "encode append")
			return
		}
		// Count the batch before sending it: a job on another client may
		// see it folded in before this call returns.
		appended.Add(int64(len(batch)))
		ta := time.Now()
		_, err = in.c.AppendCSV(ctx, dsID, &buf)
		tb := time.Now()
		if !b.op(err, "append") {
			appended.Add(-int64(len(batch)))
		} else {
			nextBatch++
			spans.add(id, 0, "server.append", ta, tb)
			mu.Lock()
			appends = append(appends, tb.Sub(ta).Seconds())
			mu.Unlock()
		}
	}
	// The clients go in rounds: each submits one job, waits for it and
	// fetches its labels, client 0 then appends, and the next round starts
	// when both are done. Both jobs of a round coalesce into one batch and
	// every append lands between batches. Free-running clients drift out
	// of step now and then, and a run's batches, run times and append
	// latencies then jump between two levels.
	for {
		if el := time.Since(start); el > serveHardCap || (el >= b.seconds && done.Load() >= serveMinJobs) {
			break
		}
		for ci := 0; ci < serveClients; ci++ {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				step(ci)
			}(ci)
		}
		wg.Wait()
	}
	el := time.Since(start).Seconds()
	logf("serve-mixed: %d jobs, %d points appended in %.1fs", len(jobs), appended.Load(), el)
	b.check(len(jobs) >= serveMinJobs, "only %d jobs finished, want at least %d", len(jobs), serveMinJobs)
	after, err := in.scrape()
	if !b.op(err, "scrape /metrics") {
		return err
	}

	var lat, qw, run, perBatch, searches, cands, reused, scratch, tracedLat, untracedLat []float64
	for _, r := range jobs {
		lat = append(lat, r.latency)
		qw = append(qw, r.queueWait)
		run = append(run, r.run)
		perBatch = append(perBatch, float64(r.batchJobs))
		searches = append(searches, float64(r.work.EpsSearches))
		cands = append(cands, float64(r.work.CandidatesExamined))
		reused = append(reused, r.reused)
		scratch = append(scratch, r.scratch)
		if r.traced {
			tracedLat = append(tracedLat, r.latency)
		} else {
			untracedLat = append(untracedLat, r.latency)
		}
	}
	logDist("job latency", lat)
	logDist("job run", run)
	logDist("labels", labels)
	logDist("append", appends)
	b.set("run_s", median(run))
	b.set("jobs_per_s", float64(len(jobs))/el)
	b.set("job_p50_s", median(lat))
	b.set("job_p90_s", quantile(lat, 0.9))
	b.set("labels_p50_s", median(labels))
	b.set("append_p50_s", median(appends))
	if b.traced {
		b.set("trace.overhead_frac", median(tracedLat)/median(untracedLat)-1)
		b.set("server.queue_wait_p50_s", median(qw))
		b.set("server.run_p50_s", median(run))
		b.set("server.jobs_per_batch", mean(perBatch))
		b.set("server.labels_bytes", mean(lblBytes))
		b.set("server.refreezes", counterValue(after, "vdbscand_dataset_refreezes_total")-
			counterValue(before, "vdbscand_dataset_refreezes_total"))
		b.set("server.refreeze_s", histMean(after, "vdbscand_dataset_refreeze_seconds"))
		b.set("persist.snapshot_write_s", histMean(after, "vdbscand_snapshot_write_seconds"))
		b.set("dbscan.searches", median(searches))
		b.set("dbscan.candidates", median(cands))
		b.set("dbscan.searches_spread_frac", spreadFrac(searches))
		b.set("core.frac_reused", median(reused))
		b.set("core.frac_reused_spread", quantile(reused, 1)-quantile(reused, 0))
		b.set("sched.from_scratch_frac", median(scratch))
	}

	err = in.stop()
	in = nil
	if !b.op(err, "drain") {
		return err
	}
	all := append(append([]vdbscan.Point(nil), pts...), stream[:appended.Load()]...)
	b.finalCheck(dir, dsID, all, pool[0])
	return nil
}

// finalCheck restarts the service on the drained data directory, so every
// appended point is folded into the restored snapshot, runs one final job
// and compares it with the library on the same points.
func (b *bench) finalCheck(dir, dsID string, all []vdbscan.Point, v client.Variant) {
	in := startInstance(dir)
	b.compareFinal(in, dsID, all, v)
	b.op(in.stop(), "drain restarted server")
}

func (b *bench) compareFinal(in *instance, dsID string, all []vdbscan.Point, v client.Variant) {
	ctx := context.Background()
	ds, err := in.c.Dataset(ctx, dsID)
	if !b.op(err, "restored dataset") {
		return
	}
	b.check(ds.Points == len(all) && ds.Staged == 0, "restored dataset has %d points (%d staged), want %d folded in",
		ds.Points, ds.Staged, len(all))
	j, err := in.c.Submit(ctx, dsID, client.SubmitRequest{Variants: []client.Variant{v}})
	if !b.op(err, "final submit") {
		return
	}
	j, err = in.c.Wait(ctx, j.ID, 30*time.Second)
	if !b.op(err, "final wait") || !b.check(j.State == "done", "final job ended %q: %s", j.State, j.Error) {
		return
	}
	body, err := in.c.Labels(ctx, j.ID, 0)
	if !b.op(err, "final labels") {
		return
	}
	got, err := dataio.ReadLabelsCSV(bytes.NewReader(body))
	if !b.op(err, "parse final labels") {
		return
	}
	want, err := vdbscan.NewIndex(all).Cluster(vdbscan.Params{Eps: v.Eps, MinPts: v.MinPts}, vdbscan.WithThreads(libraryThread))
	if !b.op(err, "library reference") {
		return
	}
	b.check(got.NumClusters == want.NumClusters && got.NumNoise() == want.NumNoise(),
		"final job: %d clusters / %d noise, library: %d / %d",
		got.NumClusters, got.NumNoise(), want.NumClusters, want.NumNoise())
	if len(got.Labels) == len(want.Labels) {
		q, err := vdbscan.Quality(want, got)
		if b.op(err, "final quality") {
			b.check(q >= 0.998, "final job quality %.5f < 0.998", q)
		}
	} else {
		b.check(false, "final job labels %d points, library %d", len(got.Labels), len(want.Labels))
	}
}

// jobTimes parses a job document's created, started and finished stamps.
func jobTimes(j *client.Job) (created, started, finished time.Time, err error) {
	if created, err = time.Parse(time.RFC3339Nano, j.Created); err != nil {
		return
	}
	if started, err = time.Parse(time.RFC3339Nano, j.Started); err != nil {
		return
	}
	finished, err = time.Parse(time.RFC3339Nano, j.Finished)
	return
}

// pickVariants draws k distinct variants from pool.
func pickVariants(rng *data.RNG, pool []client.Variant, k int) []client.Variant {
	idx := make([]int, len(pool))
	for i := range idx {
		idx[i] = i
	}
	out := make([]client.Variant, k)
	for i := range out {
		j := i + rng.IntN(len(idx)-i)
		idx[i], idx[j] = idx[j], idx[i]
		out[i] = pool[idx[i]]
	}
	return out
}

// labelRows counts the data rows of a labels CSV.
func labelRows(body []byte) int {
	n := 0
	for _, line := range strings.Split(string(body), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			n++
		}
	}
	return n
}
