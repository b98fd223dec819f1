package experiments

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"

	"dacce/internal/core"
	"dacce/internal/graph"
	"dacce/internal/machine"
	"dacce/internal/persist"
	"dacce/internal/prog"
	"dacce/internal/workload"
)

// coldRun executes the profile's workload on a fresh encoder and
// returns the warmed encoder and run stats.
func coldRun(t *testing.T, pr workload.Profile) (*core.DACCE, *machine.RunStats) {
	t.Helper()
	w, err := workload.Build(pr)
	if err != nil {
		t.Fatal(err)
	}
	d := core.New(w.P, core.Options{})
	m := w.NewMachine(d, machine.Config{SampleEvery: 31})
	rs, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return d, rs
}

// recordingScheme is the cold-start reference: a plain stub on every
// site that records each (site, target) pair it dispatches, plus the
// entry function of every spawned thread. It encodes nothing, so its
// edge and root sets are exactly what the workload executed.
type recordingScheme struct {
	mu    sync.Mutex
	edges map[graph.EdgeKey]bool
	roots map[prog.FuncID]bool
}

func (r *recordingScheme) Name() string { return "recording" }

func (r *recordingScheme) Install(m *machine.Machine) {
	for i := 0; i < m.Program().NumSites(); i++ {
		m.SetStub(prog.SiteID(i), r)
	}
}

func (r *recordingScheme) ThreadStart(t, parent *machine.Thread) {
	if parent != nil {
		r.mu.Lock()
		r.roots[t.Entry()] = true
		r.mu.Unlock()
	}
}

func (r *recordingScheme) ThreadExit(t *machine.Thread) {}

func (r *recordingScheme) Capture(t *machine.Thread) any { return nil }

func (r *recordingScheme) Prologue(t *machine.Thread, s *prog.Site, target prog.FuncID) (machine.Cookie, machine.Stub) {
	r.mu.Lock()
	r.edges[graph.EdgeKey{Site: s.ID, Target: target}] = true
	r.mu.Unlock()
	return machine.Cookie{}, r
}

func (r *recordingScheme) Epilogue(t *machine.Thread, s *prog.Site, target prog.FuncID, c machine.Cookie) {
}

// referenceRun executes the profile's workload under recordingScheme
// with the same machine configuration as coldRun and returns the
// executed edge keys and the root set (program entry plus spawned
// thread entries), both sorted.
func referenceRun(t *testing.T, pr workload.Profile) ([]graph.EdgeKey, []prog.FuncID) {
	t.Helper()
	w, err := workload.Build(pr)
	if err != nil {
		t.Fatal(err)
	}
	r := &recordingScheme{
		edges: map[graph.EdgeKey]bool{},
		roots: map[prog.FuncID]bool{w.P.Entry: true},
	}
	if _, err := w.NewMachine(r, machine.Config{SampleEvery: 31}).Run(); err != nil {
		t.Fatal(err)
	}
	edges := make([]graph.EdgeKey, 0, len(r.edges))
	for k := range r.edges {
		edges = append(edges, k)
	}
	roots := make([]prog.FuncID, 0, len(r.roots))
	for fn := range r.roots {
		roots = append(roots, fn)
	}
	sortEdgeKeys(edges)
	slices.Sort(roots)
	return edges, roots
}

// sortEdgeKeys orders edge keys by (site, target).
func sortEdgeKeys(keys []graph.EdgeKey) {
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Site != keys[j].Site {
			return keys[i].Site < keys[j].Site
		}
		return keys[i].Target < keys[j].Target
	})
}

// diffColdStart runs the profile cold under the sharded trap path and
// under recordingScheme, and returns a description of the first
// mismatch between the encoder's discovered graph and the executed
// reference, or "" when they agree. The encoder's canonical
// dictionaries are a function of its edge and root sets alone, so
// matching both sets exactly is the whole check.
func diffColdStart(t *testing.T, pr workload.Profile) string {
	t.Helper()
	d, _ := coldRun(t, pr)
	refEdges, refRoots := referenceRun(t, pr)

	g := d.Graph()
	edges := make([]graph.EdgeKey, 0, len(g.Edges))
	for _, e := range g.Edges {
		edges = append(edges, graph.EdgeKey{Site: e.Site, Target: e.Target})
	}
	sortEdgeKeys(edges)
	if !slices.Equal(edges, refEdges) {
		return fmt.Sprintf("edge sets differ: sharded %d edges, reference %d", len(edges), len(refEdges))
	}
	roots := slices.Clone(g.Roots())
	slices.Sort(roots)
	if !slices.Equal(roots, refRoots) {
		return fmt.Sprintf("root sets differ: sharded %v, reference %v", roots, refRoots)
	}
	if n := d.Stats().EdgesDiscovered; n != len(refEdges) {
		return fmt.Sprintf("discovered-edge counter %d, want %d", n, len(refEdges))
	}
	return ""
}

// TestConcurrentColdStart is the cold-start correctness gate: four
// goroutine threads trap the same cold graph through the sharded
// discovery path (run under -race in CI), and the final edge and root
// sets must match what the recording reference saw executed. The sharded run's samples must decode against the machine's
// shadow stacks, and a warm start from its snapshot must replay the
// identical workload with zero handler traps.
func TestConcurrentColdStart(t *testing.T) {
	pr := warmupProfile(4, 6_000)
	pr.Name = "coldstart-race"
	if d := diffColdStart(t, pr); d != "" {
		t.Fatal(d)
	}

	d, rs := coldRun(t, pr)
	if rs.C.HandlerTraps == 0 {
		t.Fatal("cold run executed no handler traps; the test exercised nothing")
	}
	if len(rs.Samples) == 0 {
		t.Fatal("no samples retained")
	}
	for i, s := range rs.Samples {
		ctx, err := d.DecodeSample(s)
		if err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		if len(ctx) < len(s.Shadow) {
			t.Fatalf("sample %d: decode has %d frames, shadow %d", i, len(ctx), len(s.Shadow))
		}
		local := ctx[len(ctx)-len(s.Shadow):]
		for j, f := range s.Shadow {
			if local[j].Fn != f.Fn {
				t.Fatalf("sample %d frame %d: decoded f%d, shadow f%d", i, j, local[j].Fn, f.Fn)
			}
		}
	}

	// Warm-start replay through the persistence codec: the sharded
	// structures must export deterministically enough to re-patch every
	// site before first touch.
	data, err := persist.Marshal(d.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	st, err := persist.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := workload.Build(pr)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := core.Restore(w2.P, core.Options{}, st)
	if err != nil {
		t.Fatal(err)
	}
	m := w2.NewMachine(d2, machine.Config{SampleEvery: 31, DropSamples: true})
	rs2, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rs2.C.HandlerTraps != 0 {
		t.Fatalf("warm-started replay executed %d handler traps, want 0", rs2.C.HandlerTraps)
	}
}

// sweepProfile derives a small per-seed cold-start workload: varied
// shape (fan-out, indirect sites, recursion, 2–4 threads) but a budget
// small enough that a thousand seeds stay testable under -race.
func sweepProfile(seed uint64) workload.Profile {
	threads := 2 + int(seed%3)
	return workload.Profile{
		Name:          fmt.Sprintf("coldsweep-%d", seed),
		Seed:          seed*0x9E3779B97F4A7C15 + 1,
		ExecFuncs:     28 + int(seed%5)*8,
		ExecEdges:     60 + int(seed%7)*20,
		Layers:        5 + int(seed%4),
		IndirectSites: int(seed % 4),
		ActualTargets: 2 + int(seed%2),
		RecSites:      int(seed % 3),
		RecProb:       0.25,
		RecStartProb:  0.05,
		Threads:       threads,
		TotalCalls:    2_000 * int64(threads),
		Phases:        1,
	}
}

// TestColdStartSeedSweep is the differential sweep from the acceptance
// gate: a thousand seeded workload shapes, each discovered cold by
// concurrent sharded threads, must agree with the recording reference
// on the final edge set, root set and discovered-edge count, with zero
// divergences.
// -short runs a spot-check slice.
func TestColdStartSeedSweep(t *testing.T) {
	seeds := 1000
	if testing.Short() {
		seeds = 50
	}
	divergences := 0
	for seed := uint64(0); seed < uint64(seeds); seed++ {
		if d := diffColdStart(t, sweepProfile(seed)); d != "" {
			divergences++
			t.Errorf("seed %d: %s", seed, d)
			if divergences >= 5 {
				t.Fatalf("%d divergences; stopping the sweep early", divergences)
			}
		}
	}
	if divergences != 0 {
		t.Fatalf("differential sweep: %d of %d seeds diverged", divergences, seeds)
	}
}
