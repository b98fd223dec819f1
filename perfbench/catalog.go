package main

import (
	"encoding/json"
	"strings"
)

// The catalogue is the single source of the benchmark's names: the
// workloads, the end-to-end metrics whose bounds gate a change, the
// workload-specific end-to-end figures every run also prints, and the
// per-layer metrics of the traced run with the end-to-end metric each
// one should move. BENCHMARK.json is generated from it (-write-spec)
// and a self-test keeps the committed file in sync.

type workloadSpec struct {
	Name string
	Why  string
	// Loop is the load generator's loop type and Concurrency its thread
	// or connection count.
	Loop        string
	Concurrency string
}

var workloads = []workloadSpec{
	{"steady", "403.gcc pinned to one phase on a warmed encoder: 0 traps and 0 passes, so only the stub fast path and capture-decode-intern-profile work",
		"closed", "2 application threads"},
	{"phased", "483.xalancbmk with its phases from an empty encoder: first-invocation traps, adaptive passes while threads run, deep recursion",
		"closed", "2 application threads"},
	{"epochs", "staged 16k-edge graph, 64-edge deltas each committed by one incremental pass: per-epoch CPU and memory, no fast path, no decode",
		"closed", "1 organizer goroutine"},
	{"dacced", "in-process dacced on loopback: decode batches over about 100 epochs beside retire and snapshot re-upload; HTTP, JSON, memo, persist",
		"closed", "2 client connections"},
}

// e2eSpec is one gated end-to-end metric. Every workload reports every
// gated metric; Meaning says what it is on each.
type e2eSpec struct {
	Name    string
	Unit    string
	Better  string
	Bound   float64
	Meaning string
}

var endToEnd = []e2eSpec{
	{"setup_s", "s", "lower", 0.25, "median over repeated set-ups of generating inputs and warming, staging or registering before timing starts"},
	{"ops_per_s", "ops/s", "higher", 0.25, "work completed per wall-clock second, median over rounds or windows: application calls (steady, phased), committed epochs (epochs), correctly decoded captures (dacced)"},
	{"op_ms.p50", "ms", "lower", 0.25, "median latency of the unit of work: a 2-thread round of calls (steady, phased), a delta commit (epochs), a decode batch as the client sees it (dacced)"},
	{"op_ms.p90", "ms", "lower", 0.25, "90th percentile of the same latency"},
	{"heap_retained_mb", "MB", "lower", 0.2, "live heap after forced GCs at the end of the measured phase: median over set-ups (steady), rounds (phased), epoch cycles (epochs); after retiring every epoch (dacced)"},
	{"snapshot_mb", "MB", "lower", 0.2, "size of the final encoder state from persist.Marshal: median over set-ups (steady) or rounds (phased); the registered snapshot (dacced)"},
}

// figureSpec is a workload-specific end-to-end figure: printed by name
// with its unit and recorded in the result file, not gated by the
// bounds (it does not exist on every workload).
type figureSpec struct {
	Name      string
	Unit      string
	Workloads []string
}

var figures = []figureSpec{
	{"calls_per_s", "calls/s", []string{"steady", "phased"}},
	{"pause_us.p50", "us", []string{"phased", "epochs"}},
	{"pause_us.p90", "us", []string{"phased", "epochs"}},
	{"commit_ms.p50", "ms", []string{"epochs"}},
	{"commit_ms.p90", "ms", []string{"epochs"}},
	{"decode_ms.p50", "ms", []string{"dacced"}},
	{"decode_ms.p99", "ms", []string{"dacced"}},
	{"captures_per_s", "captures/s", []string{"dacced"}},
}

// layerSpec is one per-layer metric of the traced run. Workloads lists
// where the layer is on the path; elsewhere the metric reads 0. Moves
// names the end-to-end metric (@ workload) it should move.
type layerSpec struct {
	Name      string
	Unit      string
	Better    string
	Workloads []string
	Moves     string
}

var (
	wlSteady   = []string{"steady"}
	wlPrograms = []string{"steady", "phased"}
	wlEncoders = []string{"steady", "phased", "epochs"}
	wlPasses   = []string{"phased", "epochs"}
	wlAll      = []string{"steady", "phased", "epochs", "dacced"}
	wlDacced   = []string{"dacced"}
	wlEpochs   = []string{"epochs"}
)

var perLayer = []layerSpec{
	{"machine.null_ns_per_call", "ns", "lower", wlSteady, "calls_per_s @ steady"},
	{"core.encoded_ns_per_call", "ns", "lower", wlSteady, "calls_per_s @ steady"},
	{"core.capture_ns", "ns", "lower", wlPrograms, "calls_per_s @ steady"},
	{"core.on_sample_ns", "ns", "lower", wlPrograms, "calls_per_s @ steady"},
	{"core.decode_node_ns", "ns", "lower", wlPrograms, "calls_per_s @ steady"},
	{"core.decoder_node_ns", "ns", "lower", wlDacced, "decode_ms.p50 @ dacced"},
	{"core.traps", "count", "lower", wlPrograms, "calls_per_s @ phased"},
	{"core.trap_us.p50", "us", "lower", wlPrograms, "calls_per_s @ phased"},
	{"core.trap_us.p99", "us", "lower", wlPrograms, "calls_per_s @ phased"},
	{"core.maintain_ns", "ns", "lower", wlPrograms, "calls_per_s and pause_us @ phased"},
	{"core.passes.new_edges", "count", "lower", wlPasses, "calls_per_s @ phased"},
	{"core.passes.hot_path", "count", "lower", wlPasses, "calls_per_s @ phased"},
	{"core.passes.cc_ops", "count", "lower", wlPasses, "calls_per_s @ phased"},
	{"core.passes.forced", "count", "lower", wlPasses, "calls_per_s @ phased"},
	{"core.prepare_ms", "ms", "lower", wlPasses, "commit_ms @ epochs, pause_us @ phased"},
	{"core.renumber_ms", "ms", "lower", wlPasses, "commit_ms @ epochs, pause_us @ phased"},
	{"core.index_ms", "ms", "lower", wlPasses, "commit_ms @ epochs, pause_us @ phased"},
	{"core.stub_ms", "ms", "lower", wlPasses, "commit_ms @ epochs, pause_us @ phased"},
	{"core.translate_us", "us", "lower", wlPasses, "commit_ms @ epochs, pause_us @ phased"},
	{"core.pass_cpu_ms", "ms", "lower", wlEpochs, "commit_ms and heap_retained_mb @ epochs"},
	{"core.pass_alloc_mb", "MB", "lower", wlEpochs, "commit_ms and heap_retained_mb @ epochs"},
	{"core.inject_us", "us", "lower", wlEpochs, "commit_ms @ epochs"},
	{"core.changed_edges", "count", "lower", wlPasses, "pause_us @ epochs"},
	{"core.sites_rebuilt", "count", "lower", wlPasses, "pause_us @ epochs"},
	{"core.low_water_lag", "epochs", "lower", wlPasses, "heap_retained_mb @ phased"},
	{"graph.edges", "count", "lower", wlEncoders, "commit_ms @ epochs"},
	{"blenc.dict_entries", "count", "lower", wlEncoders, "heap_retained_mb and snapshot_mb @ epochs"},
	{"ccdag.nodes", "count", "lower", wlAll, "heap_retained_mb @ steady and dacced"},
	{"ccdag.hit_rate", "ratio", "higher", wlAll, "heap_retained_mb @ steady and dacced"},
	{"ccdag.bytes_est_mb", "MB", "lower", wlAll, "heap_retained_mb @ steady and dacced"},
	{"ccdag.collected", "count", "higher", wlAll, "heap_retained_mb @ steady and dacced"},
	{"ccprof.observe_ns", "ns", "lower", wlPrograms, "calls_per_s @ steady"},
	{"ccprof.export_ms", "ms", "lower", wlPrograms, "none (reported only)"},
	{"persist.marshal_ms", "ms", "lower", wlAll, "setup_s @ dacced"},
	{"persist.unmarshal_ms", "ms", "lower", wlAll, "setup_s and decode_ms.p99 @ dacced"},
	{"server.handler_ms.p50", "ms", "lower", wlDacced, "decode_ms @ dacced"},
	{"server.handler_ms.p99", "ms", "lower", wlDacced, "decode_ms @ dacced"},
	{"server.transport_ms", "ms", "lower", wlDacced, "decode_ms @ dacced"},
	{"server.memo_hit_rate", "ratio", "higher", wlDacced, "decode_ms.p99 and captures_per_s @ dacced"},
	{"server.rejected", "count", "lower", wlDacced, "decode_ms.p99 and captures_per_s @ dacced"},
	{"server.retire_ms", "ms", "lower", wlDacced, "decode_ms.p99 @ dacced"},
	{"server.register_ms", "ms", "lower", wlDacced, "decode_ms.p99 @ dacced"},
	{"self_ms.machine", "ms", "lower", wlPrograms, "calls_per_s @ steady"},
	{"self_ms.core", "ms", "lower", wlAll, "calls_per_s @ steady, commit_ms @ epochs"},
	{"self_ms.ccprof", "ms", "lower", wlPrograms, "calls_per_s @ steady"},
	{"self_ms.persist", "ms", "lower", wlAll, "setup_s @ dacced"},
	{"self_ms.server", "ms", "lower", wlDacced, "decode_ms @ dacced"},
	{"self_ms.net", "ms", "lower", wlDacced, "decode_ms @ dacced"},
	{"ledger.residual", "ratio", "lower", wlAll, "none (share of wall time no layer span covers)"},
	{"ledger.steady_gap", "ratio", "lower", wlSteady, "none (per-call time not explained by null + encoded + sampling)"},
	{"trace.overhead", "ratio", "lower", wlAll, "none (untraced over traced throughput, minus 1)"},
	{"trace.spans", "count", "lower", wlAll, "none (spans recorded in the traced phase)"},
	{"trace.span_ns", "ns", "lower", wlSteady, "none (wall cost of one empty span, subtracted in the steady ledger)"},
}

func figureUnit(name string) string {
	for _, f := range figures {
		if f.Name == name {
			return f.Unit
		}
	}
	return ""
}

// specJSON renders BENCHMARK.json from the catalogue.
func specJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, wl{w.Name,
			w.Why + "; " + w.Loop + " loop, " + w.Concurrency})
	}
	for _, m := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		spec.PerLayer = append(spec.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// layerApplies reports whether a per-layer metric is on a workload's
// path.
func layerApplies(m layerSpec, workload string) bool {
	for _, w := range m.Workloads {
		if w == workload {
			return true
		}
	}
	return false
}

// describe renders the catalogue for humans: every name with its unit,
// its workloads, and what it moves.
func describe() string {
	var b strings.Builder
	b.WriteString("workloads:\n")
	for _, w := range workloads {
		b.WriteString("  " + w.Name + " (" + w.Loop + " loop, " + w.Concurrency + "): " + w.Why + "\n")
	}
	b.WriteString("end-to-end (gated, every workload):\n")
	for _, m := range endToEnd {
		b.WriteString("  " + m.Name + " [" + m.Unit + "]: " + m.Meaning + "\n")
	}
	b.WriteString("end-to-end figures (printed, per workload):\n")
	for _, f := range figures {
		b.WriteString("  " + f.Name + " [" + f.Unit + "] @ " + strings.Join(f.Workloads, ", ") + "\n")
	}
	b.WriteString("per-layer (traced run):\n")
	for _, m := range perLayer {
		b.WriteString("  " + m.Name + " [" + m.Unit + "] @ " + strings.Join(m.Workloads, ", ") + " -> " + m.Moves + "\n")
	}
	return b.String()
}
