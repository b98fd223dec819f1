package core

import (
	"encoding/json"
	"fmt"
	"io"

	"dacce/internal/blenc"
	"dacce/internal/graph"
	"dacce/internal/prog"
)

// Bundle is a self-contained, serializable decode dictionary: everything
// needed to decode captures offline, long after the instrumented process
// exited — the deployment mode the paper's error-reporting use cases
// need (§1). It contains the site table, the discovered call graph and
// one encoding snapshot per epoch (Fig. 6).
type Bundle struct {
	// Funcs maps function ids to names.
	Funcs []BundleFunc `json:"funcs"`
	// Sites lists every call site's caller (and kind, for reporting).
	Sites []BundleSite `json:"sites"`
	// Entry is the program entry function.
	Entry prog.FuncID `json:"entry"`
	// Edges is the discovered call graph, in insertion order.
	Edges []BundleEdge `json:"edges"`
	// Epochs holds one decode dictionary per gTimeStamp.
	Epochs []BundleEpoch `json:"epochs"`
}

// BundleFunc is one function's identity.
type BundleFunc struct {
	ID   prog.FuncID `json:"id"`
	Name string      `json:"name"`
}

// BundleSite is one call site's static description.
type BundleSite struct {
	ID     prog.SiteID `json:"id"`
	Caller prog.FuncID `json:"caller"`
	Kind   uint8       `json:"kind"`
}

// BundleEdge is one discovered call edge.
type BundleEdge struct {
	Site   prog.SiteID `json:"site"`
	Target prog.FuncID `json:"target"`
}

// BundleEpoch is one epoch's encoding snapshot.
type BundleEpoch struct {
	MaxID uint64            `json:"maxId"`
	NumCC map[string]uint64 `json:"numCC"` // key: decimal FuncID
	Codes []BundleCode      `json:"codes"`
}

// BundleCode is one edge's code at one epoch; edges absent from the
// epoch's list did not exist yet.
type BundleCode struct {
	Site    prog.SiteID `json:"site"`
	Target  prog.FuncID `json:"target"`
	Encoded bool        `json:"encoded"`
	Value   uint64      `json:"value,omitempty"`
	Back    bool        `json:"back,omitempty"`
}

// ExportBundle snapshots the encoder's decode state. Call it after (or
// during) a run; the result is independent of the DACCE instance.
func (d *DACCE) ExportBundle() *Bundle {
	// The dictionaries come from the published snapshot (immutable); the
	// mutex still covers the graph-edge iteration, which may race with
	// the handler's registration flushes otherwise. Draining first pulls
	// in edges still sitting in per-thread publication buffers.
	snap := d.cur()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.drainAllLocked()
	b := &Bundle{Entry: d.p.Entry}
	for _, f := range d.p.Funcs {
		b.Funcs = append(b.Funcs, BundleFunc{ID: f.ID, Name: f.Name})
	}
	for _, s := range d.p.Sites {
		b.Sites = append(b.Sites, BundleSite{ID: s.ID, Caller: s.Caller, Kind: uint8(s.Kind)})
	}
	for _, e := range d.g.Edges {
		b.Edges = append(b.Edges, BundleEdge{Site: e.Site, Target: e.Target})
	}
	for _, asn := range snap.dicts {
		ep := BundleEpoch{MaxID: asn.MaxID, NumCC: make(map[string]uint64)}
		for fn, n := range asn.AllNumCC() {
			ep.NumCC[fmt.Sprint(fn)] = n
		}
		for seq, code := range asn.AllCodes() {
			e := d.g.Edges[seq]
			ep.Codes = append(ep.Codes, BundleCode{
				Site: e.Site, Target: e.Target,
				Encoded: code.Encoded, Value: code.Value, Back: code.Back,
			})
		}
		b.Epochs = append(b.Epochs, ep)
	}
	return b
}

// WriteBundle serializes a bundle as JSON.
func WriteBundle(w io.Writer, b *Bundle) error {
	enc := json.NewEncoder(w)
	return enc.Encode(b)
}

// ReadBundle deserializes a bundle.
func ReadBundle(r io.Reader) (*Bundle, error) {
	var b Bundle
	if err := json.NewDecoder(r).Decode(&b); err != nil {
		return nil, fmt.Errorf("core: reading bundle: %w", err)
	}
	return &b, nil
}

// NewDecoderFromBundle reconstructs an offline Decoder. The returned
// decoder shares nothing with the process that produced the bundle.
func NewDecoderFromBundle(b *Bundle) (*Decoder, error) {
	// Rebuild a skeletal program: names, sites with callers. Bodies are
	// irrelevant for decoding.
	pb := &prog.Program{Entry: b.Entry, PLT: map[prog.SiteID]prog.FuncID{}}
	for i, f := range b.Funcs {
		if int(f.ID) != i {
			return nil, fmt.Errorf("core: bundle func %d out of order", f.ID)
		}
		pb.Funcs = append(pb.Funcs, &prog.Function{ID: f.ID, Name: f.Name, Body: func(prog.Exec) {}})
	}
	for i, s := range b.Sites {
		if int(s.ID) != i {
			return nil, fmt.Errorf("core: bundle site %d out of order", s.ID)
		}
		if int(s.Caller) < 0 || int(s.Caller) >= len(pb.Funcs) {
			return nil, fmt.Errorf("core: bundle site %d has caller f%d out of range", s.ID, s.Caller)
		}
		pb.Sites = append(pb.Sites, &prog.Site{ID: s.ID, Caller: s.Caller, Kind: prog.Kind(s.Kind)})
	}
	if int(b.Entry) < 0 || int(b.Entry) >= len(pb.Funcs) {
		return nil, fmt.Errorf("core: bundle entry f%d out of range (%d funcs)", b.Entry, len(pb.Funcs))
	}
	g := graph.New(pb)
	for _, e := range b.Edges {
		if int(e.Site) >= len(pb.Sites) || int(e.Target) >= len(pb.Funcs) {
			return nil, fmt.Errorf("core: bundle edge %v out of range", e)
		}
		g.AddEdge(e.Site, e.Target)
	}
	var dicts []*blenc.Assignment
	var prev *blenc.Assignment
	for _, ep := range b.Epochs {
		numCC := make(map[prog.FuncID]uint64, len(ep.NumCC))
		for k, v := range ep.NumCC {
			var fn prog.FuncID
			if _, err := fmt.Sscan(k, &fn); err != nil {
				return nil, fmt.Errorf("core: bundle numCC key %q: %w", k, err)
			}
			if fn >= 0 { // no function has a negative id
				numCC[fn] = v
			}
		}
		type edgeCode struct {
			e *graph.Edge
			c blenc.Code
		}
		var codes []edgeCode
		for _, c := range ep.Codes {
			// A code of an edge the bundle's graph lacks could never be
			// looked up.
			if e := g.Edge(c.Site, c.Target); e != nil {
				codes = append(codes, edgeCode{e, blenc.Code{Encoded: c.Encoded, Value: c.Value, Back: c.Back}})
			}
		}
		asn, _ := buildDict(prev, func(bd *blenc.Builder) {
			for fn, n := range numCC {
				bd.SetNumCC(fn, n)
			}
			for _, c := range codes {
				bd.SetCode(c.e, c.c)
			}
		}, len(codes), len(numCC))
		asn.MaxID = ep.MaxID
		dicts = append(dicts, asn)
		prev = asn
	}
	return &Decoder{P: pb, G: g, Dicts: dicts}, nil
}

// buildDict assembles one epoch's dictionary through fill, sharing
// storage with prev. A well-formed epoch only adds to or changes prev's
// entries; when fill leaves more entries than it set (it dropped some of
// prev's, or set one twice), the dictionary is rebuilt with no base and
// shared reports false.
func buildDict(prev *blenc.Assignment, fill func(*blenc.Builder), codes, numCC int) (asn *blenc.Assignment, shared bool) {
	b := blenc.NewBuilder(prev)
	fill(b)
	if c, n := b.Len(); prev != nil && (c != codes || n != numCC) {
		b = blenc.NewBuilder(nil)
		fill(b)
		return b.Build(), false
	}
	return b.Build(), prev != nil
}
