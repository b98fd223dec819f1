package persist

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"dacce/internal/core"
	"dacce/internal/machine"
	"dacce/internal/workload"
)

// gateProfile is the deterministic workload the persistence tests warm
// an encoder on: layered core, indirect and recursive sites so the
// tail/compress sets and multi-target edges all appear in the state.
func gateProfile(threads int, calls int64) workload.Profile {
	return workload.Profile{
		Name:          "persist-gate",
		Seed:          0xD1CE,
		ExecFuncs:     48,
		ExecEdges:     110,
		Layers:        7,
		IndirectSites: 3,
		ActualTargets: 3,
		RecSites:      2,
		RecProb:       0.3,
		RecStartProb:  0.05,
		Threads:       threads,
		TotalCalls:    calls,
		Phases:        1,
	}
}

// warmEncoder runs the profile's workload to completion on a fresh
// encoder and returns the warmed encoder plus the retained samples.
func warmEncoder(t *testing.T, pr workload.Profile) (*core.DACCE, *workload.Workload, []machine.Sample) {
	t.Helper()
	w, err := workload.Build(pr)
	if err != nil {
		t.Fatal(err)
	}
	d := core.New(w.P, core.Options{})
	m := w.NewMachine(d, machine.Config{SampleEvery: 17})
	rs, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Sharded cold start coalesces concurrent discovery bursts into few
	// passes, so a multi-threaded warmup can legitimately converge in a
	// single epoch; the tests need a multi-epoch archive, so force one
	// more pass in that case (what a checkpointing process calling
	// ReencodeNow before -save-state would produce).
	if d.Epoch() < 2 {
		d.ReencodeNow(nil, false)
	}
	if d.Epoch() < 2 {
		t.Fatalf("warmup reached only epoch %d; the tests need a multi-epoch archive", d.Epoch())
	}
	return d, w, rs.Samples
}

func TestStateRoundTrip(t *testing.T) {
	d, _, _ := warmEncoder(t, gateProfile(2, 40_000))
	st := d.ExportState()
	data, err := Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(st) {
		t.Fatal("state does not survive a marshal/unmarshal round trip")
	}
	if len(st.Tail) == 0 && len(st.Compress) == 0 && len(st.Roots) < 2 {
		t.Log("note: state exercised no tail/compress/extra-root sections")
	}
}

func TestMarshalDeterministicAndHash(t *testing.T) {
	d, _, _ := warmEncoder(t, gateProfile(1, 30_000))
	st := d.ExportState()
	a, err := Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Marshal(d.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two exports of the same quiescent encoder marshal differently")
	}
	if Hash(a) != Hash(b) {
		t.Fatal("equal snapshots hash differently")
	}
	st.Edges[0].Freq++
	c, err := Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if Hash(a) == Hash(c) {
		t.Fatal("distinct snapshots share a hash")
	}
}

func TestSaveLoad(t *testing.T) {
	d, _, _ := warmEncoder(t, gateProfile(1, 30_000))
	st := d.ExportState()
	path := filepath.Join(t.TempDir(), "enc.snap")
	if err := Save(path, st); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte(Magic)) {
		t.Fatalf("snapshot file does not start with magic %q", Magic)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(st) {
		t.Fatal("state does not survive a Save/Load round trip")
	}
	// Save must not leave temp files behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("snapshot directory holds %d entries, want just the snapshot", len(entries))
	}
}

// TestSaveSyncsDirectory asserts the durability path: Save must fsync
// the snapshot's parent directory after the rename (the rename is what
// makes the snapshot visible, and only a directory sync makes the
// rename itself survive a crash), and a directory-sync failure must
// surface as a Save error, not a silent "success" that might not be on
// disk.
func TestSaveSyncsDirectory(t *testing.T) {
	d, _, _ := warmEncoder(t, gateProfile(1, 30_000))
	st := d.ExportState()
	dir := t.TempDir()
	path := filepath.Join(dir, "enc.snap")

	orig := syncDir
	defer func() { syncDir = orig }()

	var synced []string
	syncDir = func(d string) error {
		synced = append(synced, d)
		return orig(d)
	}
	if err := Save(path, st); err != nil {
		t.Fatal(err)
	}
	if len(synced) != 1 || synced[0] != dir {
		t.Fatalf("Save synced %v, want exactly [%s]", synced, dir)
	}

	syncDir = func(string) error { return errors.New("disk gone") }
	if err := Save(filepath.Join(dir, "enc2.snap"), st); err == nil {
		t.Fatal("Save reported success although the directory sync failed")
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	d, _, _ := warmEncoder(t, gateProfile(1, 30_000))
	data, err := Marshal(d.ExportState())
	if err != nil {
		t.Fatal(err)
	}

	t.Run("truncation", func(t *testing.T) {
		for n := 0; n < len(data); n += 1 + n/16 {
			if _, err := Unmarshal(data[:n]); err == nil {
				t.Fatalf("truncation to %d of %d bytes was accepted", n, len(data))
			}
		}
	})
	t.Run("bitflip", func(t *testing.T) {
		for pos := 0; pos < len(data); pos += 1 + pos/16 {
			mut := bytes.Clone(data)
			mut[pos] ^= 0x40
			if _, err := Unmarshal(mut); err == nil {
				t.Fatalf("bit flip at byte %d was accepted", pos)
			} else if !errors.Is(err, ErrCorrupt) && pos >= len(Magic)+4 {
				// Payload and trailer corruption must always read as
				// ErrCorrupt; a flipped version byte reports the version.
				t.Fatalf("bit flip at byte %d: error %v does not wrap ErrCorrupt", pos, err)
			}
		}
	})
	t.Run("badmagic", func(t *testing.T) {
		mut := bytes.Clone(data)
		mut[0] = 'X'
		if _, err := Unmarshal(mut); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bad magic: got %v", err)
		}
	})
	t.Run("futureversion", func(t *testing.T) {
		mut := bytes.Clone(data)
		mut[len(Magic)] = byte(Version + 1)
		if _, err := Unmarshal(mut); err == nil {
			t.Fatal("future format version was accepted")
		}
	})
	t.Run("trailinggarbage", func(t *testing.T) {
		if _, err := Unmarshal(append(bytes.Clone(data), 0xEE)); err == nil {
			t.Fatal("trailing garbage was accepted")
		}
	})
}

// TestWarmStartZeroTraps is the acceptance gate: a fresh process that
// warm-starts from a snapshot of a warmed run replays the identical
// workload with zero runtime-handler traps — every call site was
// re-patched from persisted state before the first call.
func TestWarmStartZeroTraps(t *testing.T) {
	pr := gateProfile(1, 60_000)
	d, _, _ := warmEncoder(t, pr)
	path := filepath.Join(t.TempDir(), "warm.snap")
	if err := SaveEncoder(path, d); err != nil {
		t.Fatal(err)
	}

	// Simulate the restart: rebuild the program from the profile (a new
	// process would) and warm-start from disk.
	w2, err := workload.Build(pr)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := WarmStart(path, w2.P, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := w2.NewMachine(d2, machine.Config{SampleEvery: 17, DropSamples: true})
	rs, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rs.C.HandlerTraps != 0 {
		t.Fatalf("warm-started run executed %d handler traps, want 0", rs.C.HandlerTraps)
	}
	if rs.C.Calls == 0 {
		t.Fatal("warm-started run made no calls")
	}
}

// TestWarmStartMultiThread repeats the warm boot on a multi-threaded
// workload: spawned-thread roots and spawn paths come from the
// snapshot, and every sample decoded by the restarted encoder matches
// the machine's shadow stack.
func TestWarmStartMultiThread(t *testing.T) {
	pr := gateProfile(4, 60_000)
	d, _, _ := warmEncoder(t, pr)
	path := filepath.Join(t.TempDir(), "warm.snap")
	if err := SaveEncoder(path, d); err != nil {
		t.Fatal(err)
	}
	w2, err := workload.Build(pr)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := WarmStart(path, w2.P, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := w2.NewMachine(d2, machine.Config{SampleEvery: 23})
	rs, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rs.C.HandlerTraps != 0 {
		t.Fatalf("warm-started multi-thread run executed %d handler traps, want 0", rs.C.HandlerTraps)
	}
	if len(rs.Samples) == 0 {
		t.Fatal("no samples retained")
	}
	for i, s := range rs.Samples {
		ctx, err := d2.DecodeSample(s)
		if err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		c := s.Capture.(*core.Capture)
		// Sample.Shadow is the thread-local stack (spawn prefixes are the
		// decoder's job), so check the thread-local suffix of the decode
		// against it frame for frame.
		if len(ctx) < len(s.Shadow) {
			t.Fatalf("sample %d (epoch %d): decode has %d frames, shadow %d", i, c.Epoch, len(ctx), len(s.Shadow))
		}
		local := ctx[len(ctx)-len(s.Shadow):]
		for j, f := range s.Shadow {
			if local[j].Fn != f.Fn {
				t.Fatalf("sample %d (epoch %d) frame %d: decoded f%d, shadow f%d", i, c.Epoch, j, local[j].Fn, f.Fn)
			}
		}
	}
}

// TestOldEpochArchive verifies the epoch-keyed dictionary archive: a
// standalone decoder built from the snapshot decodes captures taken
// under every earlier epoch to the same contexts the live encoder
// produces.
func TestOldEpochArchive(t *testing.T) {
	d, _, samples := warmEncoder(t, gateProfile(2, 60_000))
	data, err := Marshal(d.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	st, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := st.NewDecoder()
	if err != nil {
		t.Fatal(err)
	}
	epochs := map[uint32]int{}
	for i, s := range samples {
		c, ok := s.Capture.(*core.Capture)
		if !ok {
			t.Fatalf("sample %d capture is %T", i, s.Capture)
		}
		epochs[c.Epoch]++
		want, err := d.Decode(c)
		if err != nil {
			t.Fatalf("sample %d: live decode: %v", i, err)
		}
		got, err := dec.Decode(c)
		if err != nil {
			t.Fatalf("sample %d (epoch %d): snapshot decode: %v", i, c.Epoch, err)
		}
		if !got.Equal(want) {
			t.Fatalf("sample %d (epoch %d): snapshot decode diverges from live decode\nlive:     %v\nsnapshot: %v",
				i, c.Epoch, want, got)
		}
	}
	if len(epochs) < 2 {
		t.Fatalf("samples span %d epoch(s), want ≥ 2 to exercise the archive", len(epochs))
	}
}

func TestRestoreRejectsForeignProgram(t *testing.T) {
	d, _, _ := warmEncoder(t, gateProfile(1, 30_000))
	st := d.ExportState()
	other := gateProfile(1, 30_000)
	other.ExecFuncs = 52
	other.Name = "persist-other"
	w, err := workload.Build(other)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Restore(w.P, core.Options{}, st); err == nil {
		t.Fatal("Restore accepted a snapshot from a different program")
	}
}
