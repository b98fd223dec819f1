package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// The tracer records spans around every call the benchmark makes into
// a layer. A span has a name ("layer.operation"), a start and an end, a
// parent, and an operation id shared by all spans of one operation (one
// sample, one commit, one decode request). Spans live on lanes: one
// lane per goroutine that begins them (the organizer, each machine
// thread, each client connection, the server side of each connection),
// so a lane's open spans nest like a call stack and need no locking
// against each other. A span whose parent is on another lane (a machine
// thread under its run, a handler under its client request) is a
// cross-lane child: its interval is handed to the parent, which
// subtracts the union of such intervals from its own self time.
//
// Everything stays in memory until the run ends. Aggregates (count,
// total and self time per span name) cover every span; individual spans
// are kept up to a per-lane cap and durations per name up to another,
// and anything beyond a cap is counted as dropped, never silently lost.

const (
	maxLanes       = 64
	keepSpansLane  = 1 << 14
	keepDursByName = 1 << 16

	laneOrganizer = 0
	laneThread0   = 1  // machine thread t runs on lane laneThread0+t
	laneConn0     = 40 // client connection c
	laneServer0   = 50 // server side of connection c
)

// span is one finished span as written out.
type span struct {
	Name   string `json:"name"`
	Lane   int    `json:"lane"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

type openSpan struct {
	name              string
	id, parent, op    int64
	start, kids       int64
	cross, crossChild bool
}

type spanAgg struct {
	n, total, self int64
	durs           []float64 // ns, capped at keepDursByName
}

type lane struct {
	mu      sync.Mutex
	ids     int64
	stack   []openSpan
	kept    []span
	dropped int64
	topNs   int64 // summed duration of parentless spans
	agg     map[string]*spanAgg
}

type interval struct{ lo, hi int64 }

type tracer struct {
	base  time.Time
	lanes [maxLanes]lane

	mu    sync.Mutex
	cross map[int64][]interval // cross-lane child intervals, by parent id
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), cross: map[int64][]interval{}}
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.base)) }

func (tr *tracer) lane(l int) *lane {
	if l < 0 || l >= maxLanes {
		l = maxLanes - 1
	}
	return &tr.lanes[l]
}

// begin opens a span on lane l and returns its id and operation id.
// With parent 0 the span nests under the lane's innermost open span
// (or is top-level); a nonzero parent names a span on another lane.
// op 0 inherits the parent's operation, or starts a new one. cross
// marks a span that expects cross-lane children. A nil tracer records
// nothing.
func (tr *tracer) begin(l int, name string, parent, op int64, cross bool) (id, opID int64) {
	if tr == nil {
		return 0, 0
	}
	ln := tr.lane(l)
	ln.mu.Lock()
	// Ids are drawn per lane, so concurrent lanes share no counter.
	ln.ids++
	id = int64(l+1)<<40 | ln.ids
	crossChild := parent != 0
	if parent == 0 && len(ln.stack) > 0 {
		top := &ln.stack[len(ln.stack)-1]
		parent = top.id
		if op == 0 {
			op = top.op
		}
	}
	if op == 0 {
		op = id
	}
	ln.stack = append(ln.stack, openSpan{
		name: name, id: id, parent: parent, op: op,
		start: tr.now(), cross: cross, crossChild: crossChild,
	})
	ln.mu.Unlock()
	return id, op
}

// end closes the innermost open span on lane l.
func (tr *tracer) end(l int) {
	if tr == nil {
		return
	}
	endNs := tr.now()
	ln := tr.lane(l)
	ln.mu.Lock()
	defer ln.mu.Unlock()
	if len(ln.stack) == 0 {
		return
	}
	s := ln.stack[len(ln.stack)-1]
	ln.stack = ln.stack[:len(ln.stack)-1]
	dur := endNs - s.start
	kids := s.kids
	if s.cross {
		tr.mu.Lock()
		kids += unionWithin(tr.cross[s.id], s.start, endNs)
		delete(tr.cross, s.id)
		tr.mu.Unlock()
	}
	self := max(dur-kids, 0)
	switch {
	case s.crossChild:
		tr.mu.Lock()
		tr.cross[s.parent] = append(tr.cross[s.parent], interval{s.start, endNs})
		tr.mu.Unlock()
	case len(ln.stack) > 0:
		ln.stack[len(ln.stack)-1].kids += dur
	default:
		ln.topNs += dur
	}
	if ln.agg == nil {
		ln.agg = map[string]*spanAgg{}
	}
	a := ln.agg[s.name]
	if a == nil {
		a = &spanAgg{}
		ln.agg[s.name] = a
	}
	a.n++
	a.total += dur
	a.self += self
	if len(a.durs) < keepDursByName {
		a.durs = append(a.durs, float64(dur))
	}
	if len(ln.kept) < keepSpansLane {
		ln.kept = append(ln.kept, span{
			Name: s.name, Lane: l, ID: s.id, Parent: s.parent, Op: s.op,
			Start: s.start, End: endNs, Self: self,
		})
	} else {
		ln.dropped++
	}
}

// unionWithin is the total length of the union of ivs clipped to
// [lo, hi].
func unionWithin(ivs []interval, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if b <= a {
			continue
		}
		if a > curHi {
			total += curHi - curLo
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	return total + curHi - curLo
}

// traceStats is the tracer's view after a run: per-name aggregates and
// per-layer self time.
type traceStats struct {
	byName  map[string]*spanAgg
	topNs   map[int]int64
	spans   int64
	dropped int64
}

func (tr *tracer) stats() traceStats {
	ts := traceStats{byName: map[string]*spanAgg{}, topNs: map[int]int64{}}
	if tr == nil {
		return ts
	}
	for i := range tr.lanes {
		ln := &tr.lanes[i]
		ln.mu.Lock()
		for name, a := range ln.agg {
			b := ts.byName[name]
			if b == nil {
				b = &spanAgg{}
				ts.byName[name] = b
			}
			b.n += a.n
			b.total += a.total
			b.self += a.self
			b.durs = append(b.durs, a.durs...)
			ts.spans += a.n
		}
		if ln.topNs > 0 {
			ts.topNs[i] = ln.topNs
		}
		ts.dropped += ln.dropped
		ln.mu.Unlock()
	}
	return ts
}

// meanNs is the mean duration of the named spans, in ns.
func (ts traceStats) meanNs(name string) float64 {
	a := ts.byName[name]
	if a == nil || a.n == 0 {
		return 0
	}
	return float64(a.total) / float64(a.n)
}

// quantileNs is the nearest-rank q-quantile of the named spans'
// durations, in ns.
func (ts traceStats) quantileNs(name string, q float64) float64 {
	a := ts.byName[name]
	if a == nil {
		return 0
	}
	return percentile(a.durs, q)
}

// selfByLayer sums self time per layer (the span name's first
// component), in ns.
func (ts traceStats) selfByLayer() map[string]int64 {
	out := map[string]int64{}
	for name, a := range ts.byName {
		layer, _, _ := strings.Cut(name, ".")
		out[layer] += a.self
	}
	return out
}

// residual is the share of the work lanes' wall time that no top-level
// span covers: 1 − Σ covered / (wall × lanes).
func (ts traceStats) residual(wallNs int64, lanes ...int) float64 {
	if wallNs <= 0 || len(lanes) == 0 {
		return 0
	}
	var covered int64
	for _, l := range lanes {
		covered += ts.topNs[l]
	}
	return 1 - float64(covered)/float64(wallNs*int64(len(lanes)))
}

// calibrateSpans measures the tracer on empty spans: inflate is the
// duration an empty span records, whole the wall time a begin/end pair
// costs its caller, both in ns.
func calibrateSpans() (inflate, whole float64) {
	const n = 1 << 16
	tr := newTracer()
	start := time.Now()
	for i := 0; i < n; i++ {
		tr.begin(laneOrganizer, "trace.empty", 0, 0, false)
		tr.end(laneOrganizer)
	}
	whole = float64(time.Since(start)) / n
	return tr.stats().meanNs("trace.empty"), whole
}

// write dumps every kept span, ordered by start time, as JSON.
func (tr *tracer) write(path string) error {
	var all []span
	var dropped int64
	for i := range tr.lanes {
		ln := &tr.lanes[i]
		ln.mu.Lock()
		all = append(all, ln.kept...)
		dropped += ln.dropped
		ln.mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(struct {
		Dropped int64  `json:"dropped"`
		Spans   []span `json:"spans"`
	}{dropped, all})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
