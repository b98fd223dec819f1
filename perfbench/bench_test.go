package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"dacce/internal/persist"
	"dacce/internal/workload"
)

// inputDigests builds every generated input of a seed (smoke-sized, so
// the test is quick; the generators are the same at full size) and
// hashes each.
func inputDigests(t *testing.T, seed uint64) map[string]string {
	t.Helper()
	sz := sizesFor(true)
	out := map[string]string{}
	cp, err := buildCorpus(seed, sz)
	if err != nil {
		t.Fatal(err)
	}
	out["dacced snapshot"] = persist.Hash(cp.snap)
	out["dacced corpus"] = cp.digest()
	g, err := buildEpochsGraph(seed, sz.epochsEdges, sz.epochsDelta, sz.epochsRounds)
	if err != nil {
		t.Fatal(err)
	}
	out["epochs graph"] = g.digest()
	return out
}

// programDigests hashes the two programs' shapes. They are the Table-1
// profiles, the same for every seed; a seed varies their run-time
// choices, which the snapshot and corpus digests cover.
func programDigests(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	for name, pr := range map[string]workload.Profile{
		"steady program": steadyProfile(sizesFor(true).roundCalls),
		"phased program": phasedProfile(2, sizesFor(true).roundCalls),
	} {
		w, err := workload.Build(pr)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = programDigest(w.P)
	}
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := inputDigests(t, 7), inputDigests(t, 7)
	for name, h := range a {
		if b[name] != h {
			t.Errorf("%s: seed 7 gave %s then %s", name, h, b[name])
		}
	}
	p, q := programDigests(t), programDigests(t)
	for name, h := range p {
		if q[name] != h {
			t.Errorf("%s: built twice, shapes %s and %s", name, h, q[name])
		}
	}
}

func TestDifferentSeedDifferentInputs(t *testing.T) {
	a, b := inputDigests(t, 7), inputDigests(t, 8)
	for name, h := range a {
		if b[name] == h {
			t.Errorf("%s: seeds 7 and 8 gave the same input %s", name, h)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestCatalogNames(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name, unit string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s %q: invalid name", kind, name)
		}
		if !unitRE.MatchString(unit) {
			t.Errorf("%s %q: invalid unit %q", kind, name, unit)
		}
		if seen[name] {
			t.Errorf("%s %q: name used twice", kind, name)
		}
		seen[name] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range workloads {
		check("workload", w.Name, "count")
		if _, ok := runners[w.Name]; !ok {
			t.Errorf("workload %q has no runner", w.Name)
		}
	}
	for _, m := range endToEnd {
		check("end-to-end", m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, f := range figures {
		check("figure", f.Name, f.Unit)
	}
	for _, m := range perLayer {
		check("per-layer", m.Name, m.Unit)
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		for _, w := range m.Workloads {
			if _, ok := runners[w]; !ok {
				t.Errorf("%s: unknown workload %q", m.Name, w)
			}
		}
	}
}

// TestSpecInSync keeps the committed BENCHMARK.json equal to the one
// the catalogue generates (bash perfbench/run.sh --write-spec
// BENCHMARK.json regenerates it).
func TestSpecInSync(t *testing.T) {
	want, err := specJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("BENCHMARK.json differs from the catalogue; regenerate it with --write-spec")
	}
	for _, line := range strings.Split(string(want), "\n") {
		if strings.Contains(line, `"why"`) && len(line) > 230 {
			t.Errorf("why too long: %s", line)
		}
	}
}

// TestSmokeEmitsEveryMetric runs every workload in smoke mode, both
// untraced and traced, and checks each run passes its correctness
// checks, finishes quickly and emits every metric its mode promises.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := runCfg{workload: w.Name, seed: 3, seconds: 0.3, trace: trace, smoke: true, outDir: t.TempDir()}
			start := time.Now()
			res, err := runners[w.Name](cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			complete(res, cfg)
			if took := time.Since(start); took > time.Minute {
				t.Errorf("%s trace=%v: smoke run took %v", w.Name, trace, took)
			}
			if res.Failed != 0 {
				t.Errorf("%s trace=%v: %d failed: %v", w.Name, trace, res.Failed, res.Failures)
			}
			metrics := resultLine(res).Metrics
			want := len(endToEnd)
			if trace {
				want = len(perLayer)
			}
			if len(metrics) != want {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(metrics), want)
			}
			if !trace {
				for _, f := range figures {
					if layerApplies(layerSpec{Workloads: f.Workloads}, w.Name) {
						if _, ok := res.E2E[f.Name]; !ok {
							t.Errorf("%s: figure %s not printed", w.Name, f.Name)
						}
					}
				}
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	s := summarize(xs)
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 {
		t.Fatalf("quartiles %+v, want 2.75 5.5 8.25", s)
	}
}

func TestUnionWithin(t *testing.T) {
	ivs := []interval{{0, 10}, {5, 15}, {20, 30}, {40, 50}}
	if got := unionWithin(ivs, 0, 45); got != 15+10+5 {
		t.Fatalf("union %d, want 30", got)
	}
}
