package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"dacce/internal/core"
	"dacce/internal/graph"
	"dacce/internal/prog"
)

// gen derives structured values from a fuzz input, so the fuzzer's byte
// mutations explore the space of valid encoder states deterministically.
type gen struct {
	b []byte
	i int
}

func (g *gen) byte() byte {
	if g.i >= len(g.b) {
		return 0
	}
	v := g.b[g.i]
	g.i++
	return v
}

func (g *gen) u64() uint64 {
	var buf [8]byte
	for i := range buf {
		buf[i] = g.byte()
	}
	return binary.LittleEndian.Uint64(buf[:])
}

// n returns a value in [0, max); max must be > 0.
func (g *gen) n(max int) int { return int(g.u64() % uint64(max)) }

func (g *gen) str() string {
	n := g.n(12)
	s := make([]byte, n)
	for i := range s {
		s[i] = g.byte()
	}
	return string(s)
}

// stateFromBytes builds an arbitrary but structurally valid encoder
// state from fuzz input: all ids in range, epoch chain well formed, each
// epoch a delta listing a subset of the edges and functions in
// increasing order. Everything else — names, frequencies, dictionary
// contents, which entries each delta lists, set membership and
// ordering — is fuzzer-controlled.
func stateFromBytes(data []byte) *core.EncoderState {
	g := &gen{b: data}
	nf := 1 + g.n(16)
	st := &core.EncoderState{
		Budget:          g.u64(),
		Backoff:         uint32(g.n(8)),
		GTS:             g.n(64),
		EdgesDiscovered: g.n(1 << 16),
		Entry:           prog.FuncID(g.n(nf)),
	}
	for i := 0; i < nf; i++ {
		st.Funcs = append(st.Funcs, g.str())
	}
	ns := g.n(24)
	for i := 0; i < ns; i++ {
		st.Sites = append(st.Sites, core.StateSite{
			Caller: prog.FuncID(g.n(nf)), Kind: g.byte() % 4,
		})
	}
	st.Roots = append(st.Roots, st.Entry)
	for i, n := 0, g.n(4); i < n; i++ {
		st.Roots = append(st.Roots, prog.FuncID(g.n(nf)))
	}
	st.Nodes = append(st.Nodes, st.Entry)
	for i, n := 0, g.n(nf+1); i < n; i++ {
		st.Nodes = append(st.Nodes, prog.FuncID(g.n(nf)))
	}
	if ns > 0 {
		for i, n := 0, g.n(32); i < n; i++ {
			st.Edges = append(st.Edges, core.StateEdge{
				Site:   prog.SiteID(g.n(ns)),
				Target: prog.FuncID(g.n(nf)),
				Freq:   int64(g.u64() >> 1),
			})
		}
		for i, n := 0, g.n(6); i < n; i++ {
			st.Compress = append(st.Compress, graph.EdgeKey{
				Site: prog.SiteID(g.n(ns)), Target: prog.FuncID(g.n(nf)),
			})
		}
	}
	for i, n := 0, g.n(5); i < n; i++ {
		st.Tail = append(st.Tail, prog.FuncID(g.n(nf)))
	}
	nep := 1 + g.n(4)
	st.Epoch = uint32(nep - 1)
	for i := 0; i < nep; i++ {
		ep := core.StateEpoch{
			MaxID:             g.u64(),
			Overflowed:        g.byte()&1 == 1,
			UnrestrictedMaxID: g.u64(),
			Excluded:          g.n(1 << 12),
			EncodedEdges:      g.n(1 << 12),
		}
		for fn := 0; fn < nf; fn++ {
			if g.byte()&1 == 1 {
				ep.NumCC = append(ep.NumCC, core.StateNumCC{Fn: prog.FuncID(fn), NumCC: g.u64()})
			}
		}
		for e := range st.Edges {
			if g.byte()&1 == 1 {
				ep.Codes = append(ep.Codes, core.StateCode{
					Edge:    e,
					Encoded: g.byte()&1 == 1,
					Value:   g.u64(),
					Back:    g.byte()&1 == 1,
				})
			}
		}
		st.Epochs = append(st.Epochs, ep)
	}
	return st
}

// FuzzSnapshotRoundTrip drives arbitrary encoder states through the
// codec: every state the generator can express must marshal, unmarshal
// to an equal state, and hash deterministically.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("persist"))
	f.Add(bytes.Repeat([]byte{0xA5, 0x00, 0xFF, 0x13}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		st := stateFromBytes(data)
		if err := st.Validate(); err != nil {
			t.Fatalf("generator produced an invalid state: %v", err)
		}
		blob, err := Marshal(st)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		blob2, err := Marshal(st)
		if err != nil || !bytes.Equal(blob, blob2) {
			t.Fatalf("marshal is not deterministic (err %v)", err)
		}
		got, err := Unmarshal(blob)
		if err != nil {
			t.Fatalf("unmarshal of own output: %v", err)
		}
		if !got.Equal(st) {
			t.Fatal("round trip changed the state")
		}
		if Hash(blob) != Hash(blob2) {
			t.Fatal("hash is not deterministic")
		}
	})
}

// FuzzSnapshotLoad throws arbitrary bytes — including truncated and
// bit-flipped valid snapshots — at Unmarshal: it must either return an
// error or a state that survives a clean round trip. It must never
// panic and never accept structurally invalid state.
func FuzzSnapshotLoad(f *testing.F) {
	// Seed with a valid snapshot and targeted corruptions of it, so the
	// fuzzer starts at the format boundary instead of random noise.
	valid, err := Marshal(stateFromBytes([]byte("seed state")))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	trunc := bytes.Clone(valid)
	trunc[len(Magic)+6] ^= 0x80
	f.Add(trunc)
	f.Add([]byte(Magic))
	f.Add([]byte{})
	for _, nb := range malformedDeltaBlobs() {
		f.Add(nb.blob)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Unmarshal(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !isVersionErr(err) {
				t.Fatalf("Unmarshal failed with neither ErrCorrupt nor a version error: %v", err)
			}
			return
		}
		if verr := st.Validate(); verr != nil {
			t.Fatalf("Unmarshal accepted an invalid state: %v", verr)
		}
		blob, err := Marshal(st)
		if err != nil {
			t.Fatalf("re-marshal of accepted state: %v", err)
		}
		got, err := Unmarshal(blob)
		if err != nil {
			t.Fatalf("re-unmarshal: %v", err)
		}
		if !got.Equal(st) {
			t.Fatal("accepted state does not round-trip")
		}
	})
}

// tinyState is a valid two-function, two-edge state whose single epoch
// lists both edges' codes.
func tinyState() *core.EncoderState {
	return &core.EncoderState{
		Funcs: []string{"main", "f"},
		Sites: []core.StateSite{{Caller: 0}, {Caller: 1}},
		Roots: []prog.FuncID{0},
		Nodes: []prog.FuncID{0, 1},
		Edges: []core.StateEdge{{Site: 0, Target: 1, Freq: 3}, {Site: 1, Target: 1, Freq: 1}},
		Epochs: []core.StateEpoch{{
			MaxID: 1,
			NumCC: []core.StateNumCC{{Fn: 0, NumCC: 1}, {Fn: 1, NumCC: 2}},
			Codes: []core.StateCode{{Edge: 0, Encoded: true}, {Edge: 1, Encoded: true, Value: 1, Back: true}},
		}},
	}
}

// namedBlob is a test snapshot and what it is.
type namedBlob struct {
	name string
	blob []byte
}

// malformedDeltaBlobs returns snapshots that frame correctly but must
// not load: a current-version epoch listing an entry twice, one listing
// entries out of order, and a version 1 snapshot.
func malformedDeltaBlobs() []namedBlob {
	current := func(st *core.EncoderState) []byte {
		return seal(Version, func(w *writer) { w.b = marshalPayload(w.b, st) })
	}
	repeated, unsorted := tinyState(), tinyState()
	repeated.Epochs[0].Codes[1].Edge = 0
	unsorted.Epochs[0].NumCC[0], unsorted.Epochs[0].NumCC[1] = unsorted.Epochs[0].NumCC[1], unsorted.Epochs[0].NumCC[0]
	return []namedBlob{
		{"repeated", current(repeated)},
		{"unsorted", current(unsorted)},
		{"v1", marshalV1(tinyState())},
	}
}

// isVersionErr reports whether err is Unmarshal's format-version error.
func isVersionErr(err error) bool {
	return strings.HasPrefix(err.Error(), "persist: snapshot format version ")
}

func TestUnmarshalRejectsMalformedDeltas(t *testing.T) {
	if _, err := Marshal(tinyState()); err != nil {
		t.Fatalf("the unmodified state must marshal: %v", err)
	}
	for _, nb := range malformedDeltaBlobs() {
		_, err := Unmarshal(nb.blob)
		switch {
		case err == nil:
			t.Errorf("%s: accepted", nb.name)
		case nb.name == "v1" && !isVersionErr(err):
			t.Errorf("%s: %v, want the version error", nb.name, err)
		case nb.name != "v1" && !errors.Is(err, ErrCorrupt):
			t.Errorf("%s: %v, want ErrCorrupt", nb.name, err)
		}
	}
}
