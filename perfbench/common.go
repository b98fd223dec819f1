package main

import (
	"errors"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"

	"dacce/internal/ccdag"
	"dacce/internal/core"
	"dacce/internal/persist"
)

// A run sets its workload up at least setupRepeats times, and keeps
// repeating a quick set-up until setupBudget is spent (at most
// maxSetupRepeats times), so a set-up of a few milliseconds is not
// judged on three noisy samples. setup_s is the median; the last
// set-up is the one measured.
const (
	setupRepeats    = 3
	maxSetupRepeats = 25
	setupBudget     = time.Second
)

// repeatSetup runs setup as often as the constants above say and
// returns each set-up's wall time in seconds. release drops the
// previous set-up's state before the next is built, untimed, so memory
// stays one set-up's worth.
func repeatSetup(release func(), setup func() error) ([]float64, error) {
	var times []float64
	var spent time.Duration
	for i := 0; i < setupRepeats || (spent < setupBudget && i < maxSetupRepeats); i++ {
		release()
		runtime.GC()
		start := time.Now()
		if err := setup(); err != nil {
			return nil, err
		}
		took := time.Since(start)
		spent += took
		times = append(times, took.Seconds())
	}
	return times, nil
}

// liveHeapMB forces a collection and returns the live heap in MB. The
// second collection empties the sync.Pool victim caches the first one
// only demotes, so pooled scratch does not count as live.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// cpuNow is the process's user+system CPU time in ns.
func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// allocatedBytes is the cumulative heap allocation of the process.
func allocatedBytes() uint64 {
	metrics.Read(allocSample)
	if allocSample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return allocSample[0].Value.Uint64()
}

// snapshot is an encoder state's persisted form and what it cost.
type snapshot struct {
	data        []byte
	marshalNs   int64
	unmarshalNs int64
}

// roundTrip exports d's state, marshals it, unmarshals it again and
// checks the copy equals the original and yields a decoder. With tr
// set, the two persist calls are spanned on the organizer lane.
func roundTrip(d *core.DACCE, tr *tracer) (*snapshot, error) {
	st := d.ExportState()
	s := &snapshot{}
	tr.begin(laneOrganizer, "persist.marshal", 0, 0, false)
	start := time.Now()
	data, err := persist.Marshal(st)
	s.marshalNs = int64(time.Since(start))
	tr.end(laneOrganizer)
	if err != nil {
		return nil, err
	}
	s.data = data
	tr.begin(laneOrganizer, "persist.unmarshal", 0, 0, false)
	start = time.Now()
	back, err := persist.Unmarshal(data)
	s.unmarshalNs = int64(time.Since(start))
	tr.end(laneOrganizer)
	if err != nil {
		return nil, err
	}
	if !back.Equal(st) {
		return nil, errRoundTrip
	}
	if _, err := back.NewDecoder(); err != nil {
		return nil, err
	}
	return s, nil
}

var errRoundTrip = errors.New("persisted state does not equal the exported state")

// dictEntries sums the code and numCC entries of every epoch's decode
// dictionary.
func dictEntries(d *core.DACCE) float64 {
	n := 0
	for e := uint32(0); e <= d.Epoch(); e++ {
		if a := d.Dict(e); a != nil {
			n += len(a.Codes) + len(a.NumCC)
		}
	}
	return float64(n)
}

// layerDAG records the context DAG's per-layer metrics.
func layerDAG(res *result, st ccdag.Stats) {
	res.layer("ccdag.nodes", float64(st.Nodes))
	res.layer("ccdag.hit_rate", st.HitRate())
	res.layer("ccdag.bytes_est_mb", float64(st.BytesEstimate)/1e6)
	res.layer("ccdag.collected", float64(st.Collected))
}

// layerSelf records each spanned layer's self time and the tracer's
// span count.
func layerSelf(res *result, ts traceStats) {
	self := ts.selfByLayer()
	for _, m := range perLayer {
		if layer, ok := strings.CutPrefix(m.Name, "self_ms."); ok {
			res.layer(m.Name, float64(self[layer])/1e6)
		}
	}
	res.layer("trace.spans", float64(ts.spans))
	if ts.dropped > 0 {
		res.note("%d spans beyond the per-lane cap were aggregated but not written out", ts.dropped)
	}
}

// layerPasses records the per-pass metrics over a set of epoch records:
// phase times as means per pass, work volume as means per pass.
func layerPasses(res *result, recs []core.EpochRecord) {
	if len(recs) == 0 {
		return
	}
	var prep, renum, index, stub, translate, changed, rebuilt float64
	for _, r := range recs {
		prep += float64(r.PrepareNanos)
		renum += float64(r.RenumberNanos)
		index += float64(r.IndexNanos)
		stub += float64(r.StubNanos)
		translate += float64(r.TranslateNanos)
		changed += float64(r.ChangedEdges)
		rebuilt += float64(r.SitesRebuilt)
	}
	n := float64(len(recs))
	res.layer("core.prepare_ms", prep/n/1e6)
	res.layer("core.renumber_ms", renum/n/1e6)
	res.layer("core.index_ms", index/n/1e6)
	res.layer("core.stub_ms", stub/n/1e6)
	res.layer("core.translate_us", translate/n/1e3)
	res.layer("core.changed_edges", changed/n)
	res.layer("core.sites_rebuilt", rebuilt/n)
}

// traceOverhead is untraced over traced throughput, minus one.
func traceOverhead(untraced, traced float64) float64 {
	if traced <= 0 {
		return 0
	}
	return untraced/traced - 1
}
