package main

import (
	"time"

	"dacce/internal/core"
	"dacce/internal/machine"
)

// stageEpochs builds the epochs workload's starting state: the base
// graph injected through the trap bookkeeping with no machine installed
// (so staging rebuilds no stubs), a machine installed, and one full
// seed pass so the first incremental pass has an epoch to chain from.
func stageEpochs(g *epochsGraph) *core.DACCE {
	d := core.New(g.p, core.Options{Incremental: true})
	d.InjectDiscoveries(g.base)
	d.Install(machine.New(g.p, d, machine.Config{}))
	d.ReencodeNow(nil, false)
	return d
}

// epochsPhase accumulates the rounds of one measured epochs phase.
type epochsPhase struct {
	commitMs, pauseUs, heapMB []float64
	commitNs                  int64
	recs                      []core.EpochRecord
	injectNs, cpuNs, allocB   []float64
}

// rate is commits per second at the median commit latency.
func (p *epochsPhase) rate() float64 { return 1000 / median(p.commitMs) }

func runEpochs(cfg runCfg) (*result, error) {
	sz := sizesFor(cfg.smoke)
	res := newResult(cfg)
	var (
		g *epochsGraph
		d *core.DACCE
	)
	setups, err := repeatSetup(func() { g, d = nil, nil }, func() (err error) {
		g, err = buildEpochsGraph(cfg.seed, sz.epochsEdges, sz.epochsDelta, sz.epochsRounds)
		if err == nil {
			d = stageEpochs(g)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	res.e2e("setup_s", median(setups), setups)

	// A phase runs whole cycles of epochsRounds delta commits until its
	// commit time reaches seconds. Every cycle but the first restages a
	// fresh encoder, untimed, so memory stays one cycle's worth however
	// long the run.
	measure := func(seconds float64, tr *tracer) *epochsPhase {
		p := &epochsPhase{}
		for len(p.commitMs) == 0 || float64(p.commitNs)/1e9 < seconds {
			if d == nil {
				d = stageEpochs(g)
			}
			for _, delta := range g.deltas {
				res.Attempted++
				var cpu0 int64
				var alloc0 uint64
				if tr != nil {
					cpu0, alloc0 = cpuNow(), allocatedBytes()
				}
				start := time.Now()
				_, op := tr.begin(laneOrganizer, "core.inject", 0, 0, false)
				d.InjectDiscoveries(delta)
				tr.end(laneOrganizer)
				injected := time.Since(start)
				tr.begin(laneOrganizer, "core.reencode", 0, op, false)
				d.ReencodeNow(nil, true)
				tr.end(laneOrganizer)
				commit := time.Since(start)
				if tr != nil {
					p.cpuNs = append(p.cpuNs, float64(cpuNow()-cpu0))
					p.allocB = append(p.allocB, float64(allocatedBytes()-alloc0))
					p.injectNs = append(p.injectNs, float64(injected))
				}
				p.commitNs += int64(commit)
				p.commitMs = append(p.commitMs, float64(commit)/1e6)

				st := d.Stats()
				er := st.History[len(st.History)-1]
				if !er.Incremental || er.ChangedEdges != len(delta) {
					res.fail("epoch %d: incremental=%v changed_edges=%d, want an incremental pass changing %d edges",
						er.Epoch, er.Incremental, er.ChangedEdges, len(delta))
				}
				p.pauseUs = append(p.pauseUs, float64(er.PauseNanos)/1e3)
				p.recs = append(p.recs, er)
			}
			p.heapMB = append(p.heapMB, liveHeapMB())
			if float64(p.commitNs)/1e9 < seconds {
				d = nil
			}
		}
		return p
	}

	var p *epochsPhase
	var tr *tracer
	if !cfg.trace {
		p = measure(cfg.seconds, nil)
		res.e2e("ops_per_s", p.rate(), nil)
		res.e2e("op_ms.p50", median(p.commitMs), p.commitMs)
		res.e2e("op_ms.p90", percentile(p.commitMs, 0.9), nil)
		res.e2e("commit_ms.p50", median(p.commitMs), p.commitMs)
		res.e2e("commit_ms.p90", percentile(p.commitMs, 0.9), nil)
		res.e2e("pause_us.p50", percentile(p.pauseUs, 0.5), p.pauseUs)
		res.e2e("pause_us.p90", percentile(p.pauseUs, 0.9), nil)
		res.e2e("heap_retained_mb", median(p.heapMB), p.heapMB)
	} else {
		plain := measure(cfg.seconds/2, nil)
		d = nil
		tr = newTracer()
		p = measure(cfg.seconds/2, tr)
		ts := tr.stats()
		layerPasses(res, p.recs)
		res.layer("core.inject_us", mean(p.injectNs)/1e3)
		res.layer("core.pass_cpu_ms", mean(p.cpuNs)/1e6)
		res.layer("core.pass_alloc_mb", mean(p.allocB)/1e6)
		res.layer("core.low_water_lag", float64(d.Epoch()-d.LowWaterEpoch()))
		res.layer("graph.edges", float64(d.Stats().Edges))
		res.layer("blenc.dict_entries", dictEntries(d))
		layerDAG(res, d.DAG().Stats())
		// Every measured pass is an explicit ReencodeNow, never a trigger.
		res.layer("core.passes.forced", float64(len(p.recs)))
		res.layer("core.passes.new_edges", 0)
		res.layer("core.passes.hot_path", 0)
		res.layer("core.passes.cc_ops", 0)
		res.layer("ledger.residual", ts.residual(p.commitNs, laneOrganizer))
		res.layer("trace.overhead", traceOverhead(plain.rate(), p.rate()))
	}
	res.note("%d incremental commits in %d cycles of %d", len(p.commitMs), len(p.heapMB), sz.epochsRounds)

	// The final state must survive persistence: marshal, unmarshal to an
	// equal state, and build a decoder.
	res.Attempted++
	snap, err := roundTrip(d, tr)
	if err != nil {
		res.fail("final state round trip: %v", err)
		return res, nil
	}
	res.e2e("snapshot_mb", float64(len(snap.data))/1e6, nil)
	if cfg.trace {
		res.layer("persist.marshal_ms", float64(snap.marshalNs)/1e6)
		res.layer("persist.unmarshal_ms", float64(snap.unmarshalNs)/1e6)
		layerSelf(res, tr.stats())
		return res, tr.write(spanPath(cfg))
	}
	return res, nil
}
