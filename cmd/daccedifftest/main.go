// Command daccedifftest drives the cross-encoder differential oracle:
// it records one deterministic workload trace per seed and replays it
// under every context tracker — DACCE, PCCE, CCT, PCC, with the shadow
// stack as ground truth — failing (exit 1) on any disagreement at any
// sampled query point.
//
//	daccedifftest -seeds 0:1000                  # sweep random specs
//	daccedifftest -spec testdata/seed.json       # replay one seed file
//	daccedifftest -seeds 3:4 -mutate skew-id -shrink
//	daccedifftest -stress -threads 4             # live run under forced re-encoding
//	daccedifftest -bench 429.mcf,401.bzip2       # Table 1 profiles through the oracle
//
// A failing seed prints its divergences; with -shrink it is
// delta-debugged to a minimal spec, printed as a ready-to-paste
// regression test, and optionally written with -save-spec so the exact
// failure replays from one committed JSON file.
//
// Telemetry: -metrics prints a metrics snapshot (divergences included)
// after the run, -flight-recorder dumps the last N events to stderr the
// moment a divergence is found, -json emits the full per-run reports.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"dacce/internal/cliutil"
	"dacce/internal/difftest"
	"dacce/internal/experiments"
	"dacce/internal/telemetry"
)

func main() {
	seeds := flag.String("seeds", "0:20", "seed range A:B (half-open) or a count N meaning 0:N")
	specPath := flag.String("spec", "", "run a single spec seed file instead of -seeds")
	bench := flag.String("bench", "", "comma-separated Table 1 benchmarks to run through the oracle instead of -seeds")
	encoders := flag.String("encoders", "", "comma-separated encoder subset (default all: "+strings.Join(difftest.AllEncoders, ",")+")")
	calls := flag.Int64("calls", 0, "override each spec's total call budget")
	threads := flag.Int("threads", 0, "override each spec's thread count")
	sample := flag.Int64("sample", 0, "override the query density (context query every n calls per thread)")
	forceEpoch := flag.Int64("force-epoch", -1, "override forced re-encoding period in samples (0 disables forcing)")
	mutate := flag.String("mutate", "", "inject a fault into a scratch DACCE wrapper: skew-id|drop-repetition|stale-epoch")
	incremental := flag.Bool("incremental", false, "run the DACCE replays with incremental (subgraph) re-encoding and require at least one incremental pass across the sweep")
	shrink := flag.Bool("shrink", false, "delta-debug the first failing spec to a minimal reproducer")
	shrinkBudget := flag.Int("shrink-budget", 150, "max harness runs the shrinker may spend")
	saveSpec := flag.String("save-spec", "", "write the first failing spec (shrunk when -shrink) to this JSON file")
	stress := flag.Bool("stress", false, "run the live concurrency stress driver instead of trace replay (best under -race)")
	stressForcers := flag.Int("stress-forcers", 2, "goroutines forcing full ReencodeNow passes during -stress")
	jsonOut := flag.Bool("json", false, "emit each run's full report as JSON on stdout")
	metrics := flag.Bool("metrics", false, "print a telemetry metrics snapshot after the run")
	metricsFormat := flag.String("metrics-format", "prom", "metrics snapshot format: prom|json")
	flightN := flag.Int("flight-recorder", 0, "keep a flight-recorder ring of the last N events, dumped to stderr on the first divergence")
	version := cliutil.AddVersion(flag.CommandLine)
	flag.Parse()

	if *version {
		cliutil.PrintVersion("daccedifftest")
		return
	}

	// All replays share one telemetry pipeline: encoder events plus one
	// EvDivergence per recorded mismatch.
	var mts *telemetry.Metrics
	var fr *telemetry.FlightRecorder
	var sinks []telemetry.Sink
	if *metrics {
		mts = telemetry.NewMetrics()
		sinks = append(sinks, mts)
	}
	if *flightN > 0 {
		fr = telemetry.NewFlightRecorder(*flightN, os.Stderr)
		sinks = append(sinks, fr)
	}
	opt := difftest.Options{Sink: telemetry.Multi(sinks...)}

	err := run(runConfig{
		seeds: *seeds, specPath: *specPath, bench: *bench,
		encoders: *encoders, calls: *calls, threads: *threads,
		sample: *sample, forceEpoch: *forceEpoch, mutate: *mutate,
		shrink: *shrink, shrinkBudget: *shrinkBudget, saveSpec: *saveSpec,
		stress: *stress, stressForcers: *stressForcers, jsonOut: *jsonOut,
		incremental: *incremental,
	}, opt)

	if mts != nil {
		fmt.Println()
		switch *metricsFormat {
		case "prom":
			mts.WritePrometheus(os.Stdout)
		case "json":
			mts.WriteJSON(os.Stdout)
		default:
			fmt.Fprintf(os.Stderr, "daccedifftest: unknown -metrics-format %q\n", *metricsFormat)
			os.Exit(2)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "daccedifftest:", err)
		os.Exit(1)
	}
}

type runConfig struct {
	seeds, specPath, bench, encoders, mutate, saveSpec string
	calls                                              int64
	threads                                            int
	sample, forceEpoch                                 int64
	shrink                                             bool
	shrinkBudget, stressForcers                        int
	stress, jsonOut, incremental                       bool
}

// apply folds the command-line overrides into a spec.
func (cfg *runConfig) apply(spec difftest.Spec) difftest.Spec {
	if cfg.calls > 0 {
		spec.Profile.TotalCalls = cfg.calls
	}
	if cfg.threads > 0 {
		spec.Profile.Threads = cfg.threads
	}
	if cfg.sample > 0 {
		spec.SampleEvery = cfg.sample
	}
	if cfg.forceEpoch >= 0 {
		spec.ForceEpochEvery = cfg.forceEpoch
	}
	if cfg.encoders != "" {
		spec.Encoders = strings.Split(cfg.encoders, ",")
	}
	if cfg.mutate != "" {
		spec.Mutation = cfg.mutate
	}
	if cfg.incremental {
		spec.Incremental = true
	}
	return spec
}

func run(cfg runConfig, opt difftest.Options) error {
	switch {
	case cfg.bench != "":
		rows, err := experiments.DifferentialTable(strings.Split(cfg.bench, ","),
			experiments.RunConfig{Calls: cfg.calls, SampleEvery: cfg.sample, Sink: opt.Sink}, os.Stdout)
		if err != nil {
			return err
		}
		for _, r := range rows {
			if r.Divergences > 0 {
				return fmt.Errorf("%d divergences across benchmarks", r.Divergences)
			}
		}
		return nil
	case cfg.stress:
		return runStress(cfg)
	default:
		return runSweep(cfg, opt)
	}
}

// specsFor yields the specs of this invocation: the seed file when
// given, the seed-range family otherwise.
func specsFor(cfg runConfig) ([]difftest.Spec, error) {
	if cfg.specPath != "" {
		spec, err := difftest.LoadSpec(cfg.specPath)
		if err != nil {
			return nil, err
		}
		return []difftest.Spec{cfg.apply(spec)}, nil
	}
	lo, hi, err := parseSeeds(cfg.seeds)
	if err != nil {
		return nil, err
	}
	specs := make([]difftest.Spec, 0, hi-lo)
	for s := lo; s < hi; s++ {
		specs = append(specs, cfg.apply(difftest.RandomSpec(s)))
	}
	return specs, nil
}

func runSweep(cfg runConfig, opt difftest.Options) error {
	specs, err := specsFor(cfg)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	totalSamples, maxEpochs := 0, uint32(0)
	// Per-spec replay latency rides the same log-bucketed histogram the
	// rest of the observability plane uses, so the sweep's tail is
	// visible without timing every seed by hand.
	lat := telemetry.NewHistogram(telemetry.DurationBuckets())
	incrementalPasses := 0
	for i, spec := range specs {
		start := time.Now()
		res, err := difftest.Run(spec, opt)
		lat.ObserveDuration(time.Since(start))
		if err != nil {
			return fmt.Errorf("spec %d (%s): %w", i, spec.Profile.Name, err)
		}
		if cfg.jsonOut {
			if err := enc.Encode(res); err != nil {
				return err
			}
		}
		totalSamples += res.Samples
		incrementalPasses += res.IncrementalPasses
		if res.Epochs > maxEpochs {
			maxEpochs = res.Epochs
		}
		if !res.Diverged() {
			continue
		}

		fmt.Printf("DIVERGED: %s (%d recorded, %d dropped)\n", spec.Profile.Name, len(res.Divergences), res.Dropped)
		for j, d := range res.Divergences {
			if j >= 10 {
				fmt.Printf("  ... %d more\n", len(res.Divergences)-j)
				break
			}
			fmt.Printf("  %s\n", d)
		}
		if cfg.shrink {
			fmt.Printf("shrinking (budget %d runs)...\n", cfg.shrinkBudget)
			small, accepted := difftest.Shrink(spec, nil, cfg.shrinkBudget)
			fmt.Printf("minimized after %d accepted reductions; paste as a regression test:\n\n", accepted)
			if err := difftest.WriteRegressionTest(os.Stdout, small); err != nil {
				return err
			}
			spec = small
		}
		if cfg.saveSpec != "" {
			if err := difftest.SaveSpec(cfg.saveSpec, spec); err != nil {
				return err
			}
			fmt.Printf("failing spec written to %s (replay: daccedifftest -spec %s)\n", cfg.saveSpec, cfg.saveSpec)
		}
		return fmt.Errorf("divergence on spec %q", spec.Profile.Name)
	}
	if cfg.incremental && incrementalPasses == 0 {
		return fmt.Errorf("-incremental sweep performed no incremental re-encoding passes — the subgraph path never ran")
	}
	ls := lat.Snapshot()
	extra := ""
	if cfg.incremental {
		extra = fmt.Sprintf(", %d incremental passes", incrementalPasses)
	}
	fmt.Printf("OK: %d specs, %d query points, max %d epochs%s, 0 divergences (replay p50 %v, p99 %v, max %v)\n",
		len(specs), totalSamples, maxEpochs, extra,
		time.Duration(ls.P50), time.Duration(ls.P99), time.Duration(ls.Max))
	return nil
}

func runStress(cfg runConfig) error {
	specs, err := specsFor(cfg)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	for i, spec := range specs {
		if spec.Profile.Threads < 2 && cfg.threads == 0 {
			spec.Profile.Threads = 4 // stress wants real concurrency
		}
		rep, err := difftest.Stress(spec, cfg.stressForcers)
		if err != nil {
			return fmt.Errorf("spec %d (%s): %w", i, spec.Profile.Name, err)
		}
		if cfg.jsonOut {
			if err := enc.Encode(rep); err != nil {
				return err
			}
		} else {
			fmt.Printf("%s: %d threads, %d calls, %d samples, %d epochs (%d forced passes), %d divergences\n",
				spec.Profile.Name, rep.Threads, rep.Calls, rep.Samples, rep.Epochs, rep.ForcedPasses, len(rep.Divergences))
		}
		if rep.Diverged() {
			for j, d := range rep.Divergences {
				if j >= 10 {
					break
				}
				fmt.Printf("  %s\n", d)
			}
			return fmt.Errorf("stress divergence on spec %q", spec.Profile.Name)
		}
	}
	return nil
}

// parseSeeds parses "A:B" (half-open) or "N" (meaning 0:N).
func parseSeeds(s string) (lo, hi uint64, err error) {
	if a, b, ok := strings.Cut(s, ":"); ok {
		lo, err = strconv.ParseUint(a, 10, 64)
		if err == nil {
			hi, err = strconv.ParseUint(b, 10, 64)
		}
	} else {
		hi, err = strconv.ParseUint(s, 10, 64)
	}
	if err != nil {
		return 0, 0, fmt.Errorf("bad -seeds %q (want N or A:B): %v", s, err)
	}
	if hi <= lo {
		return 0, 0, fmt.Errorf("bad -seeds %q: empty range", s)
	}
	return lo, hi, nil
}
