package persist

import (
	"testing"

	"dacce/internal/core"
	"dacce/internal/machine"
	"dacce/internal/workload"
)

// incrementalGoldenHash is the Hash of the state an
// Options{Incremental: true} discovery run of goldenProfile exports. The
// in-memory layout of the dictionaries may change; the encodings, and
// the snapshot bytes they marshal to, must not.
const incrementalGoldenHash = "dca7f8a7a4e5650b9443033650aa92d3"

// goldenProfile is a single-threaded (hence deterministic) variant of
// gateProfile with enough recursion, tail calls and phase changes that
// the incremental passes meet back edges, compression and full-pass
// fallbacks.
func goldenProfile() workload.Profile {
	pr := gateProfile(1, 200_000)
	pr.Name = "persist-golden"
	pr.RecSites = 5
	pr.SelfRecFrac = 0.4
	pr.RecStartProb = 0.3
	pr.TailSites = 2
	pr.Phases = 3
	return pr
}

func TestIncrementalStateGoldenHash(t *testing.T) {
	w, err := workload.Build(goldenProfile())
	if err != nil {
		t.Fatal(err)
	}
	d := core.New(w.P, core.Options{Incremental: true, Trig: core.Triggers{NewEdges: 4}, CompressMinPushes: 8})
	m := w.NewMachine(d, machine.Config{SampleEvery: 17})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.IncrementalPasses == 0 || st.IncrementalPasses == st.GTS {
		t.Fatalf("run made %d incremental passes of %d; the golden needs both kinds", st.IncrementalPasses, st.GTS)
	}
	xs := d.ExportState()
	if len(xs.Compress) == 0 || len(xs.Tail) == 0 {
		t.Fatalf("run enabled %d compressions and found %d tail functions; the golden needs both", len(xs.Compress), len(xs.Tail))
	}
	data, err := Marshal(xs)
	if err != nil {
		t.Fatal(err)
	}
	if got := Hash(data); got != incrementalGoldenHash {
		t.Errorf("state hash %s, want %s (%d passes, %d incremental)", got, incrementalGoldenHash, st.GTS, st.IncrementalPasses)
	}
}
