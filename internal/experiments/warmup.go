package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"dacce/internal/core"
	"dacce/internal/machine"
	"dacce/internal/persist"
	"dacce/internal/telemetry"
	"dacce/internal/workload"
)

// WarmupConfig parameterizes the cold-start scalability suite: a
// discovery-dense workload run from an empty call graph at 1/2/4/8
// threads, measuring how fast the runtime handler absorbs the burst of
// first invocations. Each thread count is measured under the sharded
// trap path (per-shard graph locks, per-thread publication buffers,
// coalesced re-encoding), plus a warm-start replay of the same
// workload from the cold run's snapshot, which must trap zero times.
type WarmupConfig struct {
	// Threads lists the thread counts to sweep (default 1, 2, 4, 8).
	Threads []int
	// CallsPerThread is each thread's call budget (default 25k — small
	// on purpose: the suite measures cold start, so discovery and
	// re-encoding should dominate the run, not steady-state calls).
	CallsPerThread int64
	// SampleEvery is the sampling period in calls (default 64; the
	// sampling controller's trigger checks are part of the cold-start
	// path under test, but the suite is not a sampling benchmark).
	SampleEvery int64
	// NoReplay skips the warm-start replay rows.
	NoReplay bool
}

func (c *WarmupConfig) fill() {
	if len(c.Threads) == 0 {
		c.Threads = []int{1, 2, 4, 8}
	}
	if c.CallsPerThread == 0 {
		c.CallsPerThread = 25_000
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = 64
	}
}

// WarmupRow is one measured (thread count, phase) configuration.
type WarmupRow struct {
	Threads int `json:"threads"`
	// Phase is "cold" (empty graph, every edge discovered by trap) or
	// "replay" (same workload warm-started from the cold run's
	// marshaled snapshot; must trap zero times).
	Phase string `json:"phase"`
	Calls int64  `json:"calls"`
	// HandlerTraps counts runtime-handler invocations; TrapsPerSec is
	// the suite's headline cold-start metric.
	HandlerTraps    int64   `json:"handler_traps"`
	TrapsPerSec     float64 `json:"traps_per_sec"`
	EdgesDiscovered int     `json:"edges_discovered"`
	// Patches counts stub rewrites (trap installation + discovery and
	// re-encoding rebuilds).
	Patches     int64   `json:"patches"`
	Epochs      uint32  `json:"epochs"`
	Passes      int     `json:"reencode_passes"`
	ElapsedMs   float64 `json:"elapsed_ms"`
	CallsPerSec float64 `json:"calls_per_sec"`
	// TimeToStableMs is the wall time from run start to the end of the
	// last re-encoding pass — after it the encoding never changed
	// again, so it is the cold-start settling time.
	TimeToStableMs float64 `json:"time_to_stable_ms"`
	// PauseP50Us/PauseP99Us/PauseMaxUs are STW re-encode pause quantiles
	// from the encoder's always-on pause histogram: what each
	// re-encoding pass cost the threads it stopped, not just how many
	// passes ran.
	PauseP50Us float64 `json:"pause_p50_us"`
	PauseP99Us float64 `json:"pause_p99_us"`
	PauseMaxUs float64 `json:"pause_max_us"`
}

// WarmupReport is the suite's result, serialized as BENCH_warmup.json.
type WarmupReport struct {
	Config     WarmupConfig `json:"config"`
	GoMaxProcs int          `json:"gomaxprocs"`
	NumCPU     int          `json:"num_cpu"`
	Rows       []WarmupRow  `json:"rows"`
	// ReplayTraps maps a thread count to the handler traps of the
	// warm-start replay (the persistence gate: must be zero).
	ReplayTraps map[string]int64 `json:"replay_traps,omitempty"`
}

// warmupProfile is the synthetic cold-start workload for n threads: a
// wide, edge-dense executed core so the first thousands of calls are
// almost all first invocations, and a thick indirect-site population
// whose per-site rebuilds exercise the per-shard stub-rebuild locks.
// The per-thread call budget is deliberately small — the suite measures
// the discovery burst, not the steady state after it.
func warmupProfile(n int, callsPerThread int64) workload.Profile {
	return workload.Profile{
		Name:          fmt.Sprintf("warmup-%dt", n),
		Seed:          0xC0DD,
		ExecFuncs:     520,
		ExecEdges:     2_600,
		Layers:        12,
		IndirectSites: 48,
		ActualTargets: 6,
		RecSites:      2,
		RecProb:       0.3,
		RecStartProb:  0.05,
		Threads:       n,
		TotalCalls:    callsPerThread * int64(n),
		Phases:        1,
	}
}

// passClock is a telemetry sink that timestamps re-encoding passes so
// the suite can report time-to-stable-epoch. Telemetry events carry no
// wall time (the encoder is clock-free); the suite supplies its own.
type passClock struct {
	start time.Time

	mu     sync.Mutex
	lastMs float64
	passes int
}

func (c *passClock) Emit(ev telemetry.Event) {
	if ev.Kind != telemetry.EvReencodeEnd {
		return
	}
	c.mu.Lock()
	c.lastMs = time.Since(c.start).Seconds() * 1e3
	c.passes++
	c.mu.Unlock()
}

// Warmup runs the cold-start scalability suite and returns the report.
func Warmup(cfg WarmupConfig) (*WarmupReport, error) {
	cfg.fill()
	rep := &WarmupReport{
		Config:     cfg,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	if !cfg.NoReplay {
		rep.ReplayTraps = map[string]int64{}
	}

	for _, n := range cfg.Threads {
		pr := warmupProfile(n, cfg.CallsPerThread)
		w, err := workload.Build(pr)
		if err != nil {
			return nil, err
		}

		run := func(phase string, d *core.DACCE, clock *passClock) (*WarmupRow, error) {
			m := w.NewMachine(d, machine.Config{
				SampleEvery: cfg.SampleEvery,
				DropSamples: true,
			})
			clock.start = time.Now()
			rs, err := m.Run()
			elapsed := time.Since(clock.start)
			if err != nil {
				return nil, err
			}
			st := d.Stats()
			ph := d.PauseHist().Snapshot()
			row := WarmupRow{
				Threads:         n,
				Phase:           phase,
				Calls:           rs.C.Calls,
				HandlerTraps:    rs.C.HandlerTraps,
				TrapsPerSec:     float64(rs.C.HandlerTraps) / elapsed.Seconds(),
				EdgesDiscovered: st.EdgesDiscovered,
				Patches:         rs.Patches,
				Epochs:          d.Epoch(),
				Passes:          clock.passes,
				ElapsedMs:       float64(elapsed.Microseconds()) / 1e3,
				CallsPerSec:     float64(rs.C.Calls) / elapsed.Seconds(),
				TimeToStableMs:  clock.lastMs,
				PauseP50Us:      float64(ph.P50) / 1e3,
				PauseP99Us:      float64(ph.P99) / 1e3,
				PauseMaxUs:      float64(ph.Max) / 1e3,
			}
			rep.Rows = append(rep.Rows, row)
			return &row, nil
		}

		// Sharded cold start: empty graph, every edge enters through the
		// batched trap path.
		clock := &passClock{}
		d := core.New(w.P, core.Options{Sink: telemetry.Filter(clock, telemetry.EvReencodeEnd)})
		if _, err := run("cold", d, clock); err != nil {
			return nil, err
		}

		// Warm-start replay: marshal the cold encoder's snapshot through
		// the persistence codec (what -save-state writes), restore it
		// into a fresh encoder, and replay the identical workload. The
		// restored stub table must re-patch every site before first
		// touch — zero handler traps.
		if !cfg.NoReplay {
			data, err := persist.Marshal(d.ExportState())
			if err != nil {
				return nil, err
			}
			st, err := persist.Unmarshal(data)
			if err != nil {
				return nil, err
			}
			d2, err := core.Restore(w.P, core.Options{}, st)
			if err != nil {
				return nil, err
			}
			replay, err := run("replay", d2, &passClock{})
			if err != nil {
				return nil, err
			}
			rep.ReplayTraps[fmt.Sprint(n)] = replay.HandlerTraps
		}
	}
	return rep, nil
}
