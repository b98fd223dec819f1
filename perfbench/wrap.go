package main

import (
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"

	"dacce/internal/ccdag"
	"dacce/internal/ccprof"
	"dacce/internal/core"
	"dacce/internal/machine"
	"dacce/internal/prog"
	"dacce/internal/telemetry"
)

// The traced run reaches the layers through three wrappers that record
// a span around each call and delegate: tracedScheme around the
// encoder, tracedObserver around the streaming profiler, tracedHandler
// around dacced. The untraced runs use the bare objects.

// tracedScheme is the encoder as the machine sees it, with spans for
// each machine thread's life, Install, Capture, OnSample and Maintain.
// It implements every optional machine interface the encoder does, so
// the machine wires the same hooks it would wire for the bare encoder.
type tracedScheme struct {
	d  *core.DACCE
	tr *tracer
	// run is the open machine.run span the next threads belong to; set
	// by the organizer before each Run.
	run int64
	// ops holds each lane's current sample operation: Capture opens it
	// and the OnSample that follows joins it.
	ops [maxLanes]int64
}

var (
	_ machine.Scheme          = (*tracedScheme)(nil)
	_ machine.SampleObserver  = (*tracedScheme)(nil)
	_ machine.CaptureReleaser = (*tracedScheme)(nil)
	_ machine.Maintainer      = (*tracedScheme)(nil)
	_ machine.ModuleObserver  = (*tracedScheme)(nil)
)

func threadLane(t *machine.Thread) int { return laneThread0 + t.ID() }

func (s *tracedScheme) Name() string { return s.d.Name() }

func (s *tracedScheme) Install(m *machine.Machine) {
	s.tr.begin(laneOrganizer, "core.install", 0, 0, false)
	s.d.Install(m)
	s.tr.end(laneOrganizer)
}

// ThreadStart opens the thread's machine.thread span as a cross-lane
// child of the run; ThreadExit closes it. Its self time is everything
// the thread did outside the spanned encoder calls: dispatch, the
// patched stubs and traps, and the program's own bodies.
func (s *tracedScheme) ThreadStart(t, parent *machine.Thread) {
	s.tr.begin(threadLane(t), "machine.thread", s.run, 0, false)
	s.d.ThreadStart(t, parent)
}

func (s *tracedScheme) ThreadExit(t *machine.Thread) {
	s.d.ThreadExit(t)
	s.tr.end(threadLane(t))
}

func (s *tracedScheme) Capture(t *machine.Thread) any {
	l := threadLane(t)
	_, op := s.tr.begin(l, "core.capture", 0, 0, false)
	c := s.d.Capture(t)
	s.tr.end(l)
	s.ops[l] = op
	return c
}

func (s *tracedScheme) OnSample(t *machine.Thread, capture any) {
	l := threadLane(t)
	s.tr.begin(l, "core.on_sample", 0, s.ops[l], false)
	s.d.OnSample(t, capture)
	s.tr.end(l)
}

func (s *tracedScheme) ReleaseCapture(capture any) { s.d.ReleaseCapture(capture) }

func (s *tracedScheme) Maintain(t *machine.Thread) {
	l := threadLane(t)
	s.tr.begin(l, "core.maintain", 0, 0, false)
	s.d.Maintain(t)
	s.tr.end(l)
}

func (s *tracedScheme) OnModuleLoad(t *machine.Thread, id prog.ModuleID) {
	s.d.OnModuleLoad(t, id)
}

func (s *tracedScheme) OnModuleUnload(t *machine.Thread, id prog.ModuleID) {
	s.d.OnModuleUnload(t, id)
}

// tracedObserver is the streaming profiler with a span around each
// observed node. The encoder calls it from inside OnSample on the
// sampling thread, so the span nests under core.on_sample.
type tracedObserver struct {
	p  *ccprof.Streaming
	tr *tracer
}

var (
	_ core.NodeObserver = tracedObserver{}
	_ core.NodeReleaser = tracedObserver{}
)

func (o tracedObserver) ObserveContext(thread int, ctx core.Context) {
	o.tr.begin(laneThread0+thread, "ccprof.observe", 0, 0, false)
	o.p.ObserveContext(thread, ctx)
	o.tr.end(laneThread0 + thread)
}

func (o tracedObserver) ObserveContextNode(thread int, n *ccdag.Node) {
	o.tr.begin(laneThread0+thread, "ccprof.observe", 0, 0, false)
	o.p.ObserveContextNode(thread, n)
	o.tr.end(laneThread0 + thread)
}

func (o tracedObserver) ReleaseNodes() { o.p.ReleaseNodes() }

// traceHeader carries "parent:op:conn" from a client span to the
// handler span it causes.
const traceHeader = "X-Perfbench-Trace"

// tracedHandler is dacced's handler with a server.<route> span per
// request, a cross-lane child of the client's net.<route> span.
type tracedHandler struct {
	next http.Handler
	tr   *tracer
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var parent, op int64
	var conn int
	if _, err := fmt.Sscanf(r.Header.Get(traceHeader), "%d:%d:%d", &parent, &op, &conn); err != nil {
		h.next.ServeHTTP(w, r)
		return
	}
	route := strings.TrimPrefix(r.URL.Path, "/v1/")
	h.tr.begin(laneServer0+conn, "server."+route, parent, op, false)
	h.next.ServeHTTP(w, r)
	h.tr.end(laneServer0 + conn)
}

// passSink counts re-encoding passes by trigger reason.
type passSink struct {
	byReason [telemetry.NumReasons]atomic.Int64
}

func (s *passSink) Emit(ev telemetry.Event) {
	if ev.Kind == telemetry.EvReencodeEnd && ev.Reason < telemetry.NumReasons {
		s.byReason[ev.Reason].Add(1)
	}
}

func (s *passSink) count(r telemetry.Reason) float64 { return float64(s.byReason[r].Load()) }
