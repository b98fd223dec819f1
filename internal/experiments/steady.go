package experiments

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"dacce/internal/ccprof"
	"dacce/internal/core"
	"dacce/internal/machine"
	"dacce/internal/persist"
	"dacce/internal/workload"
)

// SteadyConfig parameterizes the multi-threaded steady-state
// scalability suite: the same workload at 1/2/4/8 threads, each thread
// count measured twice — a warm-up run on a fresh encoder (discovery,
// re-encoding passes) and a steady run that reuses the warmed encoder,
// the regime the paper's minutes-long benchmarks spend their time in.
type SteadyConfig struct {
	// Threads lists the thread counts to sweep (default 1, 2, 4, 8).
	Threads []int
	// CallsPerThread is each thread's call budget (default 200k).
	CallsPerThread int64
	// SampleEvery is the sampling period in calls (default 3 —
	// deliberately aggressive, so the sampling controller's decode is a
	// real part of the steady-state load the lock-free paths must carry).
	SampleEvery int64
	// LoadState warm-starts the lock-free encoder from this snapshot
	// instead of a cold start, so even the "warmup" phase runs on the
	// persisted encoding (expect zero handler traps). SaveState writes
	// the warmed encoder's snapshot after the steady run. Because each
	// thread count generates its own program, both require a single
	// entry in Threads.
	LoadState string `json:"load_state,omitempty"`
	SaveState string `json:"save_state,omitempty"`
	// CcprofOut attaches the always-on streaming context profiler to the
	// lock-free encoder and writes the aggregated context profile here
	// after the steady run (pprof protobuf; folded text when the name
	// ends in .folded). Because each thread count generates its own
	// program, it requires a single entry in Threads.
	CcprofOut string `json:"ccprof_out,omitempty"`
}

func (c *SteadyConfig) fill() {
	if len(c.Threads) == 0 {
		c.Threads = []int{1, 2, 4, 8}
	}
	if c.CallsPerThread == 0 {
		c.CallsPerThread = 200_000
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = 3
	}
}

// SteadyRow is one measured (thread count, phase) configuration.
type SteadyRow struct {
	Threads int `json:"threads"`
	// Phase is "warmup" (fresh encoder: discovery + re-encoding) or
	// "steady" (warmed encoder, stable encoding).
	Phase         string  `json:"phase"`
	Calls         int64   `json:"calls"`
	ElapsedMs     float64 `json:"elapsed_ms"`
	CallsPerSec   float64 `json:"calls_per_sec"`
	AllocsPerCall float64 `json:"allocs_per_call"`
	Epochs        uint32  `json:"epochs"`
	HandlerTraps  int64   `json:"handler_traps"`
	Samples       int64   `json:"samples"`
}

// SteadyReport is the suite's result, serialized as
// BENCH_steady_state.json.
type SteadyReport struct {
	Config     SteadyConfig `json:"config"`
	GoMaxProcs int          `json:"gomaxprocs"`
	NumCPU     int          `json:"num_cpu"`
	Rows       []SteadyRow  `json:"rows"`
	// Scaling maps a thread count to steady-state lock-free throughput
	// relative to 1 thread.
	Scaling map[string]float64 `json:"scaling,omitempty"`
	// CcprofContexts counts the sampled contexts the streaming profiler
	// aggregated into CcprofOut (present when CcprofOut is set).
	CcprofContexts int64 `json:"ccprof_contexts,omitempty"`
}

// steadyProfile is the synthetic scalability workload for n threads:
// a mid-size executed core with deep-enough stacks that the sampling
// controller's decode does real work, a few indirect and recursive
// sites so every stub kind stays on the path, and a single phase so the
// warmed encoder reaches a genuinely steady encoding.
func steadyProfile(n int, callsPerThread int64) workload.Profile {
	return workload.Profile{
		Name:          fmt.Sprintf("steady-%dt", n),
		Seed:          0x57EAD1,
		ExecFuncs:     96,
		ExecEdges:     220,
		Layers:        10,
		IndirectSites: 4,
		ActualTargets: 3,
		RecSites:      2,
		RecProb:       0.3,
		RecStartProb:  0.05,
		Threads:       n,
		TotalCalls:    callsPerThread * int64(n),
		Phases:        1,
	}
}

// SteadyState runs the scalability suite and returns the report.
func SteadyState(cfg SteadyConfig) (*SteadyReport, error) {
	cfg.fill()
	if (cfg.LoadState != "" || cfg.SaveState != "") && len(cfg.Threads) != 1 {
		return nil, fmt.Errorf("steady: -save-state/-load-state need a single -threads value (each thread count generates its own program), got %v", cfg.Threads)
	}
	if cfg.CcprofOut != "" && len(cfg.Threads) != 1 {
		return nil, fmt.Errorf("steady: -ccprof-out needs a single -threads value (each thread count generates its own program), got %v", cfg.Threads)
	}
	rep := &SteadyReport{
		Config:     cfg,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Scaling:    map[string]float64{},
	}

	steadyRate := map[int]float64{}
	for _, n := range cfg.Threads {
		pr := steadyProfile(n, cfg.CallsPerThread)
		w, err := workload.Build(pr)
		if err != nil {
			return nil, err
		}

		run := func(d *core.DACCE, phase string) (*SteadyRow, error) {
			m := w.NewMachine(d, machine.Config{
				SampleEvery: cfg.SampleEvery,
				DropSamples: true,
			})
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			rs, err := m.Run()
			elapsed := time.Since(start)
			runtime.ReadMemStats(&after)
			if err != nil {
				return nil, err
			}
			row := SteadyRow{
				Threads:       n,
				Phase:         phase,
				Calls:         rs.C.Calls,
				ElapsedMs:     float64(elapsed.Microseconds()) / 1e3,
				CallsPerSec:   float64(rs.C.Calls) / elapsed.Seconds(),
				AllocsPerCall: float64(after.Mallocs-before.Mallocs) / float64(rs.C.Calls),
				Epochs:        d.Epoch(),
				HandlerTraps:  rs.C.HandlerTraps,
				Samples:       rs.C.Samples,
			}
			rep.Rows = append(rep.Rows, row)
			return &row, nil
		}

		// Lock-free build: warm-up on a fresh encoder (or one restored
		// from a snapshot), then a steady run reusing it (Install
		// re-traps every site; the warmed graph re-patches them on first
		// touch without new discoveries). -ccprof-out rides the build
		// under test: the streaming profiler observes every sampled
		// context the controller decodes.
		opt := core.Options{}
		var sprof *ccprof.Streaming
		if cfg.CcprofOut != "" {
			sprof = ccprof.NewStreaming(w.P)
			opt.ContextObserver = sprof
		}
		var d *core.DACCE
		if cfg.LoadState != "" {
			d, err = persist.WarmStart(cfg.LoadState, w.P, opt)
			if err != nil {
				return nil, err
			}
		} else {
			d = core.New(w.P, opt)
		}
		if _, err := run(d, "warmup"); err != nil {
			return nil, err
		}
		steady, err := run(d, "steady")
		if err != nil {
			return nil, err
		}
		steadyRate[n] = steady.CallsPerSec
		if cfg.SaveState != "" {
			if err := persist.SaveEncoder(cfg.SaveState, d); err != nil {
				return nil, err
			}
		}
		if sprof != nil {
			if err := writeCcprof(cfg.CcprofOut, sprof.Profile()); err != nil {
				return nil, err
			}
			rep.CcprofContexts = sprof.Total()
		}
	}
	if base := steadyRate[cfg.Threads[0]]; base > 0 {
		for n, r := range steadyRate {
			rep.Scaling[fmt.Sprint(n)] = r / base
		}
	}
	return rep, nil
}

// writeCcprof writes an aggregated context profile to path: folded text
// when the name ends in .folded, gzipped pprof protobuf otherwise.
func writeCcprof(path string, pr *ccprof.Profile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".folded") {
		err = pr.WriteFolded(f)
	} else {
		err = pr.WritePprof(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
