// Command perfbench is the repository's benchmark: four closed-loop
// workloads (steady, phased, epochs, dacced) that drive the DACCE
// encoder, its decode plane and the dacced service from outside, check
// every output they produce, and print the end-to-end metrics by name
// with their units. With -trace 1 it instead runs an untraced and a
// traced phase and reports per-layer metrics, each layer's self time,
// the ledger residual and the tracing overhead.
//
// Run it from the repository root through the launcher, which builds
// this module first:
//
//	bash perfbench/run.sh --workload steady --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --workload all runs the four
// in turn, each ending with its own such line. A failed correctness
// check makes the command exit with status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// runSeconds is the measured duration BENCHMARK.json asks for.
const runSeconds = 20

// runCfg is one invocation's settings.
type runCfg struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// smoke shrinks every input so a run finishes in a few seconds; for
	// the self-tests.
	smoke  bool
	outDir string
}

// metric is one reported value; dist, when present, is the
// distribution inside this run the value was taken from.
type metric struct {
	Unit  string   `json:"unit"`
	Value float64  `json:"value"`
	Dist  *summary `json:"dist,omitempty"`
}

// result is everything one run reports.
type result struct {
	Workload  string            `json:"workload"`
	Trace     bool              `json:"trace"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	E2E       map[string]metric `json:"end_to_end"`
	Layer     map[string]metric `json:"per_layer,omitempty"`
	Notes     []string          `json:"notes,omitempty"`
}

func newResult(cfg runCfg) *result {
	return &result{
		Workload: cfg.workload, Trace: cfg.trace,
		E2E: map[string]metric{}, Layer: map[string]metric{},
	}
}

// e2e records an end-to-end metric or figure. Units come from the
// catalogue.
func (r *result) e2e(name string, v float64, dist []float64) {
	m := metric{Unit: e2eUnit(name), Value: v}
	if len(dist) > 0 {
		s := summarize(dist)
		m.Dist = &s
	}
	r.E2E[name] = m
}

// layer records a per-layer metric of the traced run.
func (r *result) layer(name string, v float64) {
	for _, l := range perLayer {
		if l.Name == name {
			r.Layer[name] = metric{Unit: l.Unit, Value: v}
			return
		}
	}
	panic("perfbench: per-layer metric not in catalogue: " + name)
}

// fail counts one failed operation and keeps the first few reasons.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func e2eUnit(name string) string {
	for _, m := range endToEnd {
		if m.Name == name {
			return m.Unit
		}
	}
	if u := figureUnit(name); u != "" {
		return u
	}
	panic("perfbench: end-to-end metric not in catalogue: " + name)
}

var runners = map[string]func(runCfg) (*result, error){
	"steady": runSteady,
	"phased": runPhased,
	"epochs": runEpochs,
	"dacced": runDacced,
}

func main() {
	var cfg runCfg
	var trace int
	var writeSpec string
	var desc bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: steady, phased, epochs, dacced, or all of them in turn")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "measured duration in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	flag.BoolVar(&cfg.smoke, "smoke", false, "shrink every input for a quick check run")
	flag.StringVar(&cfg.outDir, "out", filepath.Join(".bench_build", "perfbench"), "directory for the result file and the span dump")
	flag.StringVar(&writeSpec, "write-spec", "", "write BENCHMARK.json generated from the metric catalogue to this path and exit")
	flag.BoolVar(&desc, "describe", false, "print every workload and metric with its unit and what it moves, and exit")
	flag.Parse()
	cfg.trace = trace == 1

	switch {
	case writeSpec != "":
		b, err := specJSON()
		if err == nil {
			err = os.WriteFile(writeSpec, b, 0o644)
		}
		exitOn(err)
		return
	case desc:
		fmt.Print(describe())
		return
	}
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	for _, name := range names {
		if _, ok := runners[name]; !ok {
			exitOn(fmt.Errorf("unknown workload %q (want steady, phased, epochs, dacced or all)", name))
		}
	}
	if trace != 0 && trace != 1 {
		exitOn(fmt.Errorf("-trace must be 0 or 1, got %d", trace))
	}
	if cfg.seconds <= 0 {
		exitOn(fmt.Errorf("-seconds must be positive"))
	}
	exitOn(os.MkdirAll(cfg.outDir, 0o755))

	failed := false
	for _, name := range names {
		cfg.workload = name
		prov := provenance(cfg)
		printProvenance(prov)
		res, err := runners[name](cfg)
		exitOn(err)
		complete(res, cfg)
		printResult(res)
		exitOn(writeResultFile(cfg, prov, res))
		line, err := json.Marshal(resultLine(res))
		exitOn(err)
		fmt.Println(string(line))
		failed = failed || res.Failed > 0
	}
	if failed {
		os.Exit(1)
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
}

// complete fills the metrics a workload does not have with zero: every
// per-layer metric is printed on every workload, reading 0 where the
// layer is off the workload's path. A gated end-to-end metric must be
// measured, never defaulted.
func complete(res *result, cfg runCfg) {
	if res.Attempted < 1 {
		res.fail("no operation was attempted")
		res.Attempted = 1
	}
	if !cfg.trace {
		for _, m := range endToEnd {
			if v, ok := res.E2E[m.Name]; !ok || !(v.Value > 0) || math.IsInf(v.Value, 0) {
				res.fail("end-to-end metric %s was not measured", m.Name)
			}
		}
		return
	}
	for _, m := range perLayer {
		if _, ok := res.Layer[m.Name]; !ok {
			if layerApplies(m, cfg.workload) {
				res.note("%s not measured on this run", m.Name)
			}
			res.layer(m.Name, 0)
		}
	}
}

// summaryLine is the last line's object.
type summaryLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// resultLine holds the gated end-to-end metrics untraced, every
// per-layer metric traced.
func resultLine(res *result) summaryLine {
	metrics := map[string]metric{}
	if res.Trace {
		for _, m := range perLayer {
			metrics[m.Name] = metric{Unit: m.Unit, Value: res.Layer[m.Name].Value}
		}
	} else {
		for _, m := range endToEnd {
			metrics[m.Name] = metric{Unit: m.Unit, Value: res.E2E[m.Name].Value}
		}
	}
	return summaryLine{res.Failed == 0, res.Attempted, res.Failed, metrics}
}

func printResult(res *result) {
	mode := "end-to-end"
	if res.Trace {
		mode = "traced per-layer"
	}
	fmt.Printf("workload %s (%s): %d operations attempted, %d failed\n", res.Workload, mode, res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Println("  FAILED:", f)
	}
	printMetrics := func(title string, ms map[string]metric) {
		if len(ms) == 0 {
			return
		}
		fmt.Println(title)
		names := make([]string, 0, len(ms))
		for n := range ms {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := ms[n]
			line := fmt.Sprintf("  %-26s %14.6g %s", n, m.Value, m.Unit)
			if m.Dist != nil && m.Dist.N > 1 {
				line += fmt.Sprintf("   (n=%d, median %.6g, q1 %.6g, q3 %.6g)", m.Dist.N, m.Dist.Median, m.Dist.Q1, m.Dist.Q3)
			}
			fmt.Println(line)
		}
	}
	printMetrics("end-to-end:", res.E2E)
	printMetrics("per-layer:", res.Layer)
	for _, n := range res.Notes {
		fmt.Println("  note:", n)
	}
}

// prov is where and how a result was measured. The repeats behind each
// metric (set-ups, rounds, windows, batches) are in its dist.
type prov struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	SingleCPU  bool    `json:"single_cpu"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Smoke      bool    `json:"smoke"`
	Started    string  `json:"started"`
}

func provenance(cfg runCfg) prov {
	return prov{
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		SingleCPU:  runtime.GOMAXPROCS(0) < 2,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Smoke:      cfg.smoke,
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
}

func printProvenance(p prov) {
	fmt.Printf("perfbench commit %s, %s, %s, NumCPU %d, GOMAXPROCS %d, seed %d, %gs measured\n",
		p.Commit, p.GoVersion, p.CPUModel, p.NumCPU, p.GOMAXPROCS, p.Seed, p.Seconds)
	if p.SingleCPU {
		fmt.Println("WARNING: GOMAXPROCS < 2 — the 2-thread and 2-connection workloads run interleaved on one CPU; do not compare with multi-CPU results")
	}
	if p.Smoke {
		fmt.Println("WARNING: smoke mode — inputs are shrunk; figures are not comparable")
	}
}

// commit is the VCS revision stamped into the binary, when it was
// built inside a git checkout.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown (built outside a git checkout)"
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// writeResultFile records the full result with its provenance under
// outDir.
func writeResultFile(cfg runCfg, p prov, res *result) error {
	name := fmt.Sprintf("%s-seed%d-trace%v.json", cfg.workload, cfg.seed, b2i(cfg.trace))
	b, err := json.MarshalIndent(struct {
		Provenance prov    `json:"provenance"`
		Result     *result `json:"result"`
	}{p, res}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.outDir, name), b, 0o644)
}

// spanPath is where a traced run writes its spans.
func spanPath(cfg runCfg) string {
	return filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
