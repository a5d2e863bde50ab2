package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"vdbscan/internal/obs"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (or converted from the library's obs phase events). Spans of one
// iteration or request share a Trace id; Parent is 0 for a root span.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Trace  int     `json:"trace"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the benchmark started
	End    float64 `json:"end_s"`
}

// spanLog keeps every span in memory until the run ends. A nil *spanLog
// records nothing, so untraced runs share the traced code paths.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog(t0 time.Time) *spanLog { return &spanLog{t0: t0} }

// add records a finished span and returns its id (0 when disabled).
func (l *spanLog) add(trace, parent int, name string, start, end time.Time) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Trace: trace, Name: name,
		Start: start.Sub(l.t0).Seconds(), End: end.Sub(l.t0).Seconds(),
	})
	return id
}

func (l *spanLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// phaseName maps an obs phase to the layer that runs it.
func phaseName(p obs.Phase) string {
	switch p {
	case obs.PhaseExpand:
		return "core.expand"
	case obs.PhaseScratch:
		return "core.scratch"
	case obs.PhaseTileRun:
		return "dbscan.tile_run"
	case obs.PhaseTileMerge:
		return "dbscan.tile_merge"
	default:
		return "dbscan." + p.String()
	}
}

// obsSpan is one span rebuilt from obs events, with times relative to the
// traced call's start and its parent as an index into the same slice (-1
// for the call itself).
type obsSpan struct {
	name       string
	start, end time.Duration
	parent     int
}

// obsSpans pairs the obs events of one traced library call into spans:
// a variant runs from KindStarted to KindDone on its worker, phases nest in
// the variant (or phase) open on the same worker, and a donor's help runs
// from KindDonorJoin to KindDonorLeave.
func obsSpans(evs []obs.Event) []obsSpan {
	var out []obsSpan
	stacks := map[int32][]int{}
	push := func(w int32, s obsSpan) {
		st := stacks[w]
		s.parent = -1
		if len(st) > 0 {
			s.parent = st[len(st)-1]
		}
		out = append(out, s)
		stacks[w] = append(st, len(out)-1)
	}
	pop := func(w int32, name string, at time.Duration) {
		st := stacks[w]
		for i := len(st) - 1; i >= 0; i-- {
			if out[st[i]].name == name {
				for _, j := range st[i:] {
					out[j].end = at
				}
				stacks[w] = st[:i]
				return
			}
		}
	}
	for _, e := range evs {
		switch e.Kind {
		case obs.KindStarted:
			push(e.Worker, obsSpan{name: "sched.variant", start: e.At, end: -1})
		case obs.KindDone:
			pop(e.Worker, "sched.variant", e.At)
		case obs.KindDonorJoin:
			push(e.Worker, obsSpan{name: "sched.donate", start: e.At, end: -1})
		case obs.KindDonorLeave:
			pop(e.Worker, "sched.donate", e.At)
		case obs.KindPhaseBegin:
			push(e.Worker, obsSpan{name: phaseName(obs.Phase(e.Arg)), start: e.At, end: -1})
		case obs.KindPhaseEnd:
			pop(e.Worker, phaseName(obs.Phase(e.Arg)), e.At)
		}
	}
	// Drop spans whose closing event was lost (ring overflow).
	kept := out[:0:0]
	remap := make([]int, len(out))
	for i, s := range out {
		remap[i] = -1
		if s.end < 0 {
			continue
		}
		if s.parent >= 0 {
			s.parent = remap[s.parent]
		}
		remap[i] = len(kept)
		kept = append(kept, s)
	}
	return kept
}

// phaseSeconds sums span durations by name: the busy time of each phase
// across workers.
func phaseSeconds(ss []obsSpan) map[string]float64 {
	m := map[string]float64{}
	for _, s := range ss {
		m[s.name] += (s.end - s.start).Seconds()
	}
	return m
}

// addObs records obs-derived spans under the call span callID, which
// started at callStart.
func (l *spanLog) addObs(trace, callID int, callStart time.Time, ss []obsSpan) {
	if l == nil {
		return
	}
	ids := make([]int, len(ss))
	for i, s := range ss {
		parent := callID
		if s.parent >= 0 {
			parent = ids[s.parent]
		}
		ids[i] = l.add(trace, parent, s.name, callStart.Add(s.start), callStart.Add(s.end))
	}
}

// selfTimes returns each layer's self time in seconds per iteration or
// request: for every trace id > 0, the summed duration of the layer's spans
// minus the part of each span that its child spans cover, then the median
// across trace ids. Set-up spans (trace ids < 0) are left out; set-up is
// measured on its own.
func (l *spanLog) selfTimes() map[string]float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	children := map[int][]span{}
	perTrace := map[int]map[string]float64{}
	for _, s := range l.spans {
		children[s.Parent] = append(children[s.Parent], s)
		if s.Trace > 0 && perTrace[s.Trace] == nil {
			perTrace[s.Trace] = map[string]float64{}
		}
	}
	for _, s := range l.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		if s.Trace > 0 {
			perTrace[s.Trace][layer] += (s.End - s.Start) - covered(s, children[s.ID])
		}
	}
	out := map[string]float64{}
	for _, layer := range selfLayers {
		var xs []float64
		for _, m := range perTrace {
			xs = append(xs, m[layer])
		}
		out[layer] = median(xs)
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]float64, 0, len(kids))
	for _, k := range kids {
		a, z := max(k.Start, parent.Start), min(k.End, parent.End)
		if z > a {
			iv = append(iv, [2]float64{a, z})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curZ float64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curZ, open = x[0], x[1], true
		case x[0] <= curZ:
			curZ = max(curZ, x[1])
		default:
			total += curZ - curA
			curA, curZ = x[0], x[1]
		}
	}
	if open {
		total += curZ - curA
	}
	return total
}

// write saves every span as JSON.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	l.mu.Lock()
	data, err := json.Marshal(l.spans)
	l.mu.Unlock()
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
