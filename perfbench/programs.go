package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"dacce/internal/ccprof"
	"dacce/internal/core"
	"dacce/internal/machine"
	"dacce/internal/telemetry"
	"dacce/internal/workload"
)

// sizes are the workloads' input sizes; smoke mode shrinks them all.
type sizes struct {
	roundCalls   int64 // calls per 2-thread round (steady, phased)
	retain       int   // samples retained per thread per round for checking
	epochsEdges  int
	epochsDelta  int
	epochsRounds int // rounds per epochs cycle, each on a freshly staged encoder
	corpusCalls  int64
	corpusSize   int
	batch        int
}

func sizesFor(smoke bool) sizes {
	if smoke {
		return sizes{
			roundCalls: 20_000, retain: 64,
			epochsEdges: 1_000, epochsDelta: 16, epochsRounds: 5,
			corpusCalls: 100_000, corpusSize: 256, batch: 32,
		}
	}
	return sizes{
		roundCalls: 200_000, retain: 256,
		epochsEdges: 16_000, epochsDelta: 64, epochsRounds: 100,
		corpusCalls: 2_000_000, corpusSize: 16384, batch: 128,
	}
}

const (
	steadySampleEvery = 16
	phasedSampleEvery = 64
	// maxWarmRounds bounds the steady warm-up; it ends earlier, after
	// two consecutive rounds with no trap and no pass.
	maxWarmRounds = 60
)

// round is one machine run: its calls, wall time, traps and the
// samples it retained with the ground truth needed to check them.
type round struct {
	calls   int64
	wall    time.Duration
	traps   int64
	samples []machine.Sample
	spawn   map[int][]machine.Frame
}

// runRound runs w once under scheme. A traced scheme gets a
// machine.run span on the organizer lane around the run.
func runRound(w *workload.Workload, scheme machine.Scheme, mcfg machine.Config, tr *tracer) (round, error) {
	m := w.NewMachine(scheme, mcfg)
	if ts, ok := scheme.(*tracedScheme); ok {
		ts.run, _ = tr.begin(laneOrganizer, "machine.run", 0, 0, true)
		defer tr.end(laneOrganizer)
	}
	start := time.Now()
	rs, err := m.Run()
	wall := time.Since(start)
	if err != nil {
		return round{}, err
	}
	r := round{calls: rs.C.Calls, wall: wall, traps: rs.C.HandlerTraps, samples: rs.Samples, spawn: map[int][]machine.Frame{}}
	for _, th := range m.Threads() {
		r.spawn[th.ID()] = th.SpawnShadow
	}
	return r, nil
}

// check decodes every retained sample through DecodeNode and
// NodeContext and compares it with the shadow stack, then releases the
// capture. Each sample is one attempted operation. Returns the
// DecodeNode times in ns.
func (r *round) check(res *result, d *core.DACCE) []float64 {
	ns := make([]float64, 0, len(r.samples))
	for _, s := range r.samples {
		res.Attempted++
		c, ok := s.Capture.(*core.Capture)
		if !ok {
			res.fail("sample %d/%d holds %T, not a capture", s.Thread, s.Seq, s.Capture)
			continue
		}
		start := time.Now()
		n, err := d.DecodeNode(c)
		ns = append(ns, float64(time.Since(start)))
		switch {
		case err != nil:
			res.fail("sample %d/%d: decode: %v", s.Thread, s.Seq, err)
		case !core.NodeContext(n).Equal(core.ShadowContext(r.spawn[s.Thread], s.Shadow)):
			res.fail("sample %d/%d: decoded context differs from the shadow stack", s.Thread, s.Seq)
		}
		d.ReleaseCapture(c)
	}
	r.samples = nil
	return ns
}

// phase accumulates the rounds of one measured phase.
type phase struct {
	calls    int64
	wall     time.Duration
	traps    int64
	roundMs  []float64
	rates    []float64 // calls per second, per round
	decodeNs []float64
}

func (p *phase) add(r round) {
	p.calls += r.calls
	p.wall += r.wall
	p.traps += r.traps
	p.roundMs = append(p.roundMs, float64(r.wall)/1e6)
	p.rates = append(p.rates, float64(r.calls)/r.wall.Seconds())
}

func (p *phase) merge(q *phase) {
	p.calls += q.calls
	p.wall += q.wall
	p.traps += q.traps
	p.roundMs = append(p.roundMs, q.roundMs...)
	p.rates = append(p.rates, q.rates...)
	p.decodeNs = append(p.decodeNs, q.decodeNs...)
}

// callsPerS is the median round's throughput: a burst of host noise
// slows a few rounds, not the median.
func (p *phase) callsPerS() float64 { return median(p.rates) }

// report records the phase's throughput and round latency.
func (p *phase) report(res *result) {
	res.e2e("ops_per_s", p.callsPerS(), p.rates)
	res.e2e("calls_per_s", p.callsPerS(), p.rates)
	res.e2e("op_ms.p50", median(p.roundMs), p.roundMs)
	res.e2e("op_ms.p90", percentile(p.roundMs, 0.9), nil)
}

func (p *phase) nsPerCall() float64 { return float64(p.wall) / float64(p.calls) }

// runFor runs rounds until their summed wall time reaches seconds; one
// round at least.
func runFor(seconds float64, round func(*phase) error) (*phase, error) {
	p := &phase{}
	for len(p.roundMs) == 0 || p.wall.Seconds() < seconds {
		if err := round(p); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// steadyState is a warmed steady-workload encoder.
type steadyState struct {
	sz    sizes
	mseed uint64 // machine PRNG seed
	w     *workload.Workload
	prof  *ccprof.Streaming
	d     *core.DACCE
}

func newSteady(seed uint64, sz sizes) (*steadyState, error) {
	w, err := workload.Build(steadyProfile(sz.roundCalls))
	if err != nil {
		return nil, err
	}
	s := &steadyState{sz: sz, mseed: machineSeed(seed, "steady"), w: w, prof: ccprof.NewStreaming(w.P)}
	s.d = core.New(w.P, core.Options{ContextObserver: s.prof})
	quiet := 0
	for i := 0; i < maxWarmRounds && quiet < 2; i++ {
		before := s.d.Epoch()
		r, err := runRound(w, s.d, machine.Config{SampleEvery: steadySampleEvery, DropSamples: true, Seed: s.mseed}, nil)
		if err != nil {
			return nil, err
		}
		if r.traps == 0 && s.d.Epoch() == before {
			quiet++
		} else {
			quiet = 0
		}
	}
	// One full pass with the machine idle encodes the warm profile
	// hottest-first and zeroes the trigger counters the warm-up left
	// part-way to their thresholds, so the measured phase starts on a
	// settled encoding.
	s.d.ReencodeNow(nil, false)
	return s, nil
}

// rounds measures the warmed encoder under scheme for seconds.
// sampleEvery 0 runs without sampling (the fast-path probes); otherwise
// every round's retained samples are checked.
func (s *steadyState) rounds(res *result, scheme machine.Scheme, sampleEvery int64, seconds float64, tr *tracer) (*phase, error) {
	mcfg := machine.Config{SampleEvery: sampleEvery, MaxSamplesPerThread: s.sz.retain, Seed: s.mseed}
	if sampleEvery == 0 {
		mcfg.DropSamples = true
	}
	return runFor(seconds, func(p *phase) error {
		r, err := runRound(s.w, scheme, mcfg, tr)
		if err != nil {
			return err
		}
		p.add(r)
		p.decodeNs = append(p.decodeNs, r.check(res, s.d)...)
		return nil
	})
}

// runSteady measures each of its setupRepeats set-ups for an equal
// share of the run and pools the rounds. A warm-up's pass count depends
// on how the two threads interleave, and with it the encoder's epoch
// count, snapshot size and heap; pooling over several warm-ups keeps
// one unlucky warm-up from moving the run's figures.
func runSteady(cfg runCfg) (*result, error) {
	sz := sizesFor(cfg.smoke)
	res := newResult(cfg)
	if cfg.trace {
		var s *steadyState
		setups, err := repeatSetup(func() { s = nil }, func() (err error) {
			s, err = newSteady(cfg.seed, sz)
			return err
		})
		if err != nil {
			return nil, err
		}
		res.e2e("setup_s", median(setups), setups)
		return res, traceSteady(cfg, res, s)
	}

	var setups, snaps, heaps []float64
	pooled := &phase{}
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		start := time.Now()
		s, err := newSteady(cfg.seed, sz)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		startEpoch := s.d.Epoch()
		p, err := s.rounds(res, s.d, steadySampleEvery, cfg.seconds/setupRepeats, nil)
		if err != nil {
			return nil, err
		}
		pooled.merge(p)
		steadyQuiet(res, p, s.d.Epoch()-startEpoch)
		snap, err := roundTrip(s.d, nil)
		if err != nil {
			return nil, err
		}
		snaps = append(snaps, float64(len(snap.data))/1e6)
		snap = nil
		heaps = append(heaps, liveHeapMB())
		runtime.KeepAlive(s)
	}
	res.e2e("setup_s", median(setups), setups)
	pooled.report(res)
	res.e2e("snapshot_mb", median(snaps), snaps)
	res.e2e("heap_retained_mb", median(heaps), heaps)
	return res, nil
}

// steadyQuiet reports a measured phase's traps and passes; both should
// be 0 on a warmed single-phase encoder.
func steadyQuiet(res *result, p *phase, passes uint32) {
	res.note("measured phase: %d traps, %d re-encoding passes, %d rounds", p.traps, passes, len(p.roundMs))
}

// traceSteady runs the steady workload's traced measurement in four
// equal slices: the program under NullScheme and under the warmed
// encoder, both unsampled (the per-call fast path by difference), then
// the sampled run untraced and traced.
func traceSteady(cfg runCfg, res *result, s *steadyState) error {
	startEpoch := s.d.Epoch()
	slice := cfg.seconds / 4
	null, err := s.rounds(res, machine.NullScheme{}, 0, slice, nil)
	if err != nil {
		return err
	}
	enc, err := s.rounds(res, s.d, 0, slice, nil)
	if err != nil {
		return err
	}
	plain, err := s.rounds(res, s.d, steadySampleEvery, slice, nil)
	if err != nil {
		return err
	}
	tr := newTracer()
	s.d.SetContextObserver(tracedObserver{s.prof, tr})
	traced, err := s.rounds(res, &tracedScheme{d: s.d, tr: tr}, steadySampleEvery, slice, tr)
	s.d.SetContextObserver(s.prof)
	if err != nil {
		return err
	}
	steadyQuiet(res, traced, s.d.Epoch()-startEpoch)

	ts := tr.stats()
	capture, onSample, maintain := ts.meanNs("core.capture"), ts.meanNs("core.on_sample"), ts.meanNs("core.maintain")
	res.layer("machine.null_ns_per_call", null.nsPerCall())
	res.layer("core.encoded_ns_per_call", enc.nsPerCall()-null.nsPerCall())
	res.layer("core.capture_ns", capture)
	res.layer("core.on_sample_ns", onSample)
	res.layer("core.maintain_ns", maintain)
	res.layer("core.decode_node_ns", mean(append(plain.decodeNs, traced.decodeNs...)))
	res.layer("ccprof.observe_ns", ts.meanNs("ccprof.observe"))
	// A warmed single-phase encoder should not trap; the trap latency
	// figures are those of the measured phase, so 0 when it has none.
	res.layer("core.traps", float64(traced.traps+plain.traps))
	res.layer("core.trap_us.p50", 0)
	res.layer("core.trap_us.p99", 0)
	res.layer("graph.edges", float64(s.d.Stats().Edges))
	res.layer("blenc.dict_entries", dictEntries(s.d))
	layerDAG(res, s.d.DAG().Stats())
	// The ledger: per-call time of the sampled untraced run against the
	// parts measured separately — null dispatch plus the encoded fast
	// path (together the unsampled encoder's per-call time), plus the
	// sampled calls' capture and OnSample, plus maintenance. The spanned
	// parts are first cleared of what their spans add: inflate for every
	// span, and a whole span for the observe span inside each OnSample.
	// The gap is reported, not absorbed.
	inflate, whole := calibrateSpans()
	res.layer("trace.span_ns", whole)
	model := enc.nsPerCall() +
		(capture-inflate+onSample-inflate-whole)/steadySampleEvery +
		(maintain-inflate)/machine.DefaultMaintainEvery
	res.layer("ledger.steady_gap", (plain.nsPerCall()-model)/plain.nsPerCall())
	res.layer("ledger.residual", ts.residual(int64(traced.wall), laneOrganizer))
	res.layer("trace.overhead", traceOverhead(plain.callsPerS(), traced.callsPerS()))
	layerSelf(res, ts)
	return finishTrace(cfg, res, tr, s.prof, s.d)
}

// finishTrace records the persist and ccprof export costs of the final
// state and writes the span dump.
func finishTrace(cfg runCfg, res *result, tr *tracer, prof *ccprof.Streaming, d *core.DACCE) error {
	if prof != nil {
		start := time.Now()
		if err := prof.WritePprof(io.Discard); err != nil {
			return fmt.Errorf("ccprof export: %w", err)
		}
		res.layer("ccprof.export_ms", float64(time.Since(start))/1e6)
	}
	if d != nil {
		snap, err := roundTrip(d, tr)
		if err != nil {
			return err
		}
		res.layer("persist.marshal_ms", float64(snap.marshalNs)/1e6)
		res.layer("persist.unmarshal_ms", float64(snap.unmarshalNs)/1e6)
	}
	return tr.write(spanPath(cfg))
}

// phasedRound is one cold round of the phased workload: a fresh
// encoder with default options (and, traced, the pass sink) runs the
// program once.
type phasedRound struct {
	d    *core.DACCE
	prof *ccprof.Streaming
}

func runPhased(cfg runCfg) (*result, error) {
	sz := sizesFor(cfg.smoke)
	res := newResult(cfg)
	var w *workload.Workload
	setups, err := repeatSetup(func() { w = nil }, func() (err error) {
		w, err = workload.Build(phasedProfile(2, sz.roundCalls))
		return err
	})
	if err != nil {
		return nil, err
	}
	res.e2e("setup_s", median(setups), setups)

	var (
		pauses, heaps, snaps []float64
		lastRound            phasedRound
		recs                 []core.EpochRecord
		trapP50, trapP99     []float64
		trapCount            int64
		lags                 []float64
	)
	mcfg := machine.Config{SampleEvery: phasedSampleEvery, MaxSamplesPerThread: sz.retain, Seed: machineSeed(cfg.seed, "phased")}
	measure := func(seconds float64, tr *tracer, sink telemetry.Sink) (*phase, error) {
		return runFor(seconds, func(p *phase) error {
			pr := phasedRound{prof: ccprof.NewStreaming(w.P)}
			var obs core.ContextObserver = pr.prof
			if tr != nil {
				obs = tracedObserver{pr.prof, tr}
			}
			pr.d = core.New(w.P, core.Options{ContextObserver: obs, Sink: sink})
			var scheme machine.Scheme = pr.d
			if tr != nil {
				scheme = &tracedScheme{d: pr.d, tr: tr}
			}
			r, err := runRound(w, scheme, mcfg, tr)
			if err != nil {
				return err
			}
			p.add(r)
			lag := float64(pr.d.Epoch() - pr.d.LowWaterEpoch())
			p.decodeNs = append(p.decodeNs, r.check(res, pr.d)...)
			st := pr.d.Stats()
			for _, er := range st.History {
				pauses = append(pauses, float64(er.PauseNanos)/1e3)
			}
			// Only traced rounds feed the per-layer figures.
			if tr != nil {
				lags = append(lags, lag)
				recs = append(recs, st.History...)
				th := pr.d.TrapHist().Snapshot()
				trapCount += th.Count
				if th.Count > 0 {
					trapP50 = append(trapP50, float64(th.P50)/1e3)
					trapP99 = append(trapP99, float64(th.P99)/1e3)
				}
			}
			snap, err := roundTrip(pr.d, nil)
			if err != nil {
				return err
			}
			snaps = append(snaps, float64(len(snap.data))/1e6)
			snap = nil
			lastRound = pr // drop the previous round's encoder before weighing the heap
			heaps = append(heaps, liveHeapMB())
			return nil
		})
	}

	if !cfg.trace {
		p, err := measure(cfg.seconds, nil, nil)
		if err != nil {
			return nil, err
		}
		p.report(res)
		res.e2e("pause_us.p50", percentile(pauses, 0.5), pauses)
		res.e2e("pause_us.p90", percentile(pauses, 0.9), nil)
		res.e2e("heap_retained_mb", median(heaps), heaps)
		res.e2e("snapshot_mb", median(snaps), snaps)
		res.note("%d cold rounds, %d re-encoding passes, %d traps", len(p.roundMs), len(pauses), p.traps)
		return res, nil
	}

	// Untraced and traced quarters alternate, so a drift in host speed
	// over the run does not read as tracing overhead.
	tr := newTracer()
	sink := &passSink{}
	plain, traced := &phase{}, &phase{}
	for i := 0; i < 4; i++ {
		into, t, s := plain, (*tracer)(nil), telemetry.Sink(nil)
		if i%2 == 1 {
			into, t, s = traced, tr, sink
		}
		p, err := measure(cfg.seconds/4, t, s)
		if err != nil {
			return nil, err
		}
		into.merge(p)
	}
	ts := tr.stats()
	res.layer("core.capture_ns", ts.meanNs("core.capture"))
	res.layer("core.on_sample_ns", ts.meanNs("core.on_sample"))
	res.layer("core.maintain_ns", ts.meanNs("core.maintain"))
	res.layer("ccprof.observe_ns", ts.meanNs("ccprof.observe"))
	res.layer("core.decode_node_ns", mean(traced.decodeNs))
	res.layer("core.traps", float64(trapCount))
	res.layer("core.trap_us.p50", median(trapP50))
	res.layer("core.trap_us.p99", median(trapP99))
	res.layer("core.passes.new_edges", sink.count(telemetry.ReasonNewEdges))
	res.layer("core.passes.hot_path", sink.count(telemetry.ReasonHotPath))
	res.layer("core.passes.cc_ops", sink.count(telemetry.ReasonCCOps))
	res.layer("core.passes.forced", sink.count(telemetry.ReasonForced))
	layerPasses(res, recs)
	res.layer("core.low_water_lag", mean(lags))
	res.layer("graph.edges", float64(lastRound.d.Stats().Edges))
	res.layer("blenc.dict_entries", dictEntries(lastRound.d))
	layerDAG(res, lastRound.d.DAG().Stats())
	res.layer("ledger.residual", ts.residual(int64(traced.wall), laneOrganizer))
	res.layer("trace.overhead", traceOverhead(plain.callsPerS(), traced.callsPerS()))
	layerSelf(res, ts)
	res.note("traced phase: %d cold rounds, %d passes", len(traced.roundMs), len(recs))
	return res, finishTrace(cfg, res, tr, lastRound.prof, lastRound.d)
}
