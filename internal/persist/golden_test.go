package persist

import (
	"encoding/binary"
	"hash/crc32"
	"maps"
	"slices"
	"testing"

	"dacce/internal/core"
	"dacce/internal/machine"
	"dacce/internal/prog"
	"dacce/internal/workload"
)

// The golden hashes pin the state an Options{Incremental: true}
// discovery run of goldenProfile exports. The in-memory layout of the
// dictionaries may change; the encodings must not.
const (
	// incrementalGoldenHash is the Hash of the state's version 1
	// snapshot, which stores every epoch's full dictionary. It was
	// recorded before the delta format existed, so matching it shows the
	// delta export and its expansion lose or change no entry.
	incrementalGoldenHash = "dca7f8a7a4e5650b9443033650aa92d3"
	// incrementalGoldenHashV2 is the Hash of the state's current
	// (version 2, delta) snapshot.
	incrementalGoldenHashV2 = "53c620e07faede59316804de1deaaae6"
)

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
	if got := Hash(data); got != incrementalGoldenHashV2 {
		t.Errorf("v2 state hash %s, want %s (%d passes, %d incremental)", got, incrementalGoldenHashV2, st.GTS, st.IncrementalPasses)
	}
	if got := Hash(marshalV1(expandEpochs(xs))); got != incrementalGoldenHash {
		t.Errorf("v1 hash of the expanded state %s, want %s", got, incrementalGoldenHash)
	}
}

// expandEpochs returns a copy of st whose every epoch lists its full
// dictionary: each epoch's delta applied on top of the expanded epoch
// before it.
func expandEpochs(st *core.EncoderState) *core.EncoderState {
	out := *st
	out.Epochs = nil
	codes := map[int]core.StateCode{}
	numCC := map[prog.FuncID]uint64{}
	for _, ep := range st.Epochs {
		for _, c := range ep.Codes {
			codes[c.Edge] = c
		}
		for _, nc := range ep.NumCC {
			numCC[nc.Fn] = nc.NumCC
		}
		full := ep
		full.Codes, full.NumCC = nil, nil
		for _, e := range slices.Sorted(maps.Keys(codes)) {
			full.Codes = append(full.Codes, codes[e])
		}
		for _, fn := range slices.Sorted(maps.Keys(numCC)) {
			full.NumCC = append(full.NumCC, core.StateNumCC{Fn: fn, NumCC: numCC[fn]})
		}
		out.Epochs = append(out.Epochs, full)
	}
	return &out
}

// marshalV1 is a copy of the version 1 snapshot writer, so the v1
// golden hash does not move with the current codec. Its payload layout
// is the one version 2 kept; only the meaning of the epoch lists
// changed.
func marshalV1(st *core.EncoderState) []byte {
	return seal(1, func(w *writer) {
		w.u64(st.Budget)
		w.u64(uint64(st.Epoch))
		w.u64(uint64(st.Backoff))
		w.i64(int64(st.GTS))
		w.i64(int64(st.EdgesDiscovered))
		w.u64(uint64(uint32(st.Entry)))
		w.count(len(st.Funcs))
		for _, name := range st.Funcs {
			w.str(name)
		}
		w.count(len(st.Sites))
		for _, s := range st.Sites {
			w.u64(uint64(uint32(s.Caller)))
			w.b = append(w.b, s.Kind)
		}
		for _, fns := range [][]prog.FuncID{st.Roots, st.Nodes} {
			w.count(len(fns))
			for _, fn := range fns {
				w.u64(uint64(uint32(fn)))
			}
		}
		w.count(len(st.Edges))
		for _, e := range st.Edges {
			w.u64(uint64(uint32(e.Site)))
			w.u64(uint64(uint32(e.Target)))
			w.i64(e.Freq)
		}
		w.count(len(st.Tail))
		for _, fn := range st.Tail {
			w.u64(uint64(uint32(fn)))
		}
		w.count(len(st.Compress))
		for _, k := range st.Compress {
			w.u64(uint64(uint32(k.Site)))
			w.u64(uint64(uint32(k.Target)))
		}
		w.count(len(st.Epochs))
		for _, ep := range st.Epochs {
			w.u64(ep.MaxID)
			w.bool(ep.Overflowed)
			w.u64(ep.UnrestrictedMaxID)
			w.i64(int64(ep.Excluded))
			w.i64(int64(ep.EncodedEdges))
			w.count(len(ep.NumCC))
			for _, nc := range ep.NumCC {
				w.u64(uint64(uint32(nc.Fn)))
				w.u64(nc.NumCC)
			}
			w.count(len(ep.Codes))
			for _, c := range ep.Codes {
				w.i64(int64(c.Edge))
				w.bool(c.Encoded)
				w.u64(c.Value)
				w.bool(c.Back)
			}
		}
	})
}

// seal frames a payload as a snapshot of the given format version:
// magic, version, payload, CRC. Unlike Marshal it validates nothing, so
// tests can build malformed snapshots with it.
func seal(version uint32, payload func(*writer)) []byte {
	w := &writer{b: append([]byte(Magic), 0, 0, 0, 0)}
	binary.LittleEndian.PutUint32(w.b[len(Magic):], version)
	payload(w)
	return binary.LittleEndian.AppendUint32(w.b, crc32.ChecksumIEEE(w.b))
}
