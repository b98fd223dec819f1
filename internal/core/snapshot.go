package core

import (
	"slices"

	"dacce/internal/blenc"
	"dacce/internal/graph"
	"dacce/internal/prog"
	"dacce/internal/pvec"
)

// encSnap bundles the read-mostly encoding state into one immutable
// snapshot published through DACCE.snap (RCU style). Steady-state
// readers — patched stubs, the sampling controller, decode requests,
// and the public MaxID/Dict/Epoch/CompressCount accessors — load the
// pointer once and see a consistent (epoch, maxID, dictionaries,
// tail-set, compression-set) tuple without ever taking d.mu. Writers
// (edge discovery, re-encoding, tail fix-ups) build a fresh snapshot
// under d.mu and publish it with a single atomic store; readers that
// loaded the previous snapshot keep a valid, internally consistent view
// of the epoch they started in, which is exactly the semantics the
// per-epoch decode dictionaries of paper Fig. 6 require.
//
// Invariants:
//
//   - every field is immutable after publication; mutation is always
//     copy-on-write under d.mu;
//   - dicts and idx grow by one entry per epoch and share their prefix
//     with the previous snapshot (the slices are append-copied, the
//     *Assignment/*decodeIndex elements are shared and frozen), and
//     each new element shares its storage with the one before it;
//   - epoch == len(dicts)-1 and maxID == dicts[epoch].MaxID;
//   - tail and compress are never mutated in place: a new map replaces
//     the old one when an entry is added.
type encSnap struct {
	// epoch is the current gTimeStamp.
	epoch uint32
	// maxID is the current epoch's maximum context id; run-time ids in
	// (maxID, 2*maxID+1] mark saved context on the ccStack.
	maxID uint64
	// dicts holds one decode dictionary per epoch (Fig. 6).
	dicts []*blenc.Assignment
	// idx holds one immutable decode index per epoch, parallel to
	// dicts; it lets the decoder run without touching the live (still
	// growing) call graph.
	idx []*decodeIndex
	// tail is the set of functions known to contain tail calls; calls
	// into them must save/restore the encoding context (paper §5.2).
	tail map[prog.FuncID]bool
	// compress is the set of back edges with Fig. 5e repetition
	// compression enabled.
	compress map[graph.EdgeKey]bool
}

// cur returns the current published snapshot. Callers holding d.mu see
// the snapshot their own mutations (if any) have already published;
// lock-free callers see some recent consistent snapshot.
func (d *DACCE) cur() *encSnap { return d.snap.Load() }

// withTailLocked returns a copy of s whose tail set additionally
// contains fn. Caller holds d.mu and publishes the result.
func (s *encSnap) withTailLocked(fn prog.FuncID) *encSnap {
	tail := make(map[prog.FuncID]bool, len(s.tail)+1)
	for k, v := range s.tail {
		tail[k] = v
	}
	tail[fn] = true
	ns := *s
	ns.tail = tail
	return &ns
}

// decodeIndex is the per-epoch decode acceleration structure: for every
// function, the encoded in-edges of the epoch with their code ranges
// (Algorithm 1 lines 26–33), plus a per-site edge table for crediting
// sample-estimated frequencies. It is built once per re-encoding pass
// with d.mu held and immutable afterwards, so the decoder and the
// sampling controller can walk it lock-free while the live graph keeps
// growing on other threads. Both tables are persistent vectors shared
// with the previous epoch's index: an epoch stores only the in-edge
// lists and site entries that changed.
//
// An epoch's encoded edge set is frozen by construction: edges
// discovered after the pass are unencoded (they live on the ccStack and
// decode through the program's static site table, not through the
// graph), so the index is complete for every capture of its epoch.
type decodeIndex struct {
	// in maps a function (by FuncID) to its encoded in-edges at this
	// epoch, in in-edge insertion order (the same order Decoder.findEdge
	// walks Node.In), each carrying the caller's numCC for the range
	// check.
	in pvec.Vec[[]inEdge]
	// sites maps a call site (by SiteID) to its edges that existed when
	// the index was built (for a live pass, the edges of its epoch),
	// whose Freq fields the sampling controller updates atomically.
	// Edges discovered later are absent; they are counted directly by
	// their unencoded stubs, so no credit is lost.
	sites pvec.Vec[[]*graph.Edge]
	// edges is how many of g.Edges (a prefix) the site table holds.
	edges int
}

// inEdge is one encoded in-edge of a function at one epoch.
type inEdge struct {
	site   prog.SiteID
	caller prog.FuncID
	code   uint64
	ncc    uint64
}

// edge returns the (site, fn) edge if it existed at the index's epoch.
func (ix *decodeIndex) edge(site prog.SiteID, fn prog.FuncID) *graph.Edge {
	es, _ := ix.sites.Get(int(site))
	for _, e := range es {
		if e.Target == fn {
			return e
		}
	}
	return nil
}

// newDecodeIndex builds the decode index for asn, an assignment of g,
// with every edge of g in the site table. With a nil prev it builds
// from scratch; otherwise prev must be the index of the dictionary asn
// was derived from, on the same graph, and only what asn's stored delta
// can have changed is rebuilt: the in-edge lists of the targets of
// changed codes and of the callees of functions whose numCC changed (a
// list's ranges depend on exactly those), and the site entries of the
// edges registered since prev. Everything else is shared with prev.
// Caller holds d.mu (or owns g exclusively), so the graph iteration is
// safe.
//
// Returns the index and how many in-edge entries it (re)built, for
// per-phase cost attribution.
func newDecodeIndex(g *graph.Graph, asn *blenc.Assignment, prev *decodeIndex) (*decodeIndex, int) {
	var base decodeIndex
	if prev != nil {
		base = *prev
	}
	in, sites := base.in.Edit(), base.sites.Edit()
	// The site table gains the edges registered since prev was built.
	for _, e := range g.Edges[base.edges:] {
		es, _ := sites.Get(int(e.Site))
		sites.Set(int(e.Site), append(es[:len(es):len(es)], e))
	}
	var dirty map[prog.FuncID]bool
	if prev == nil {
		dirty = make(map[prog.FuncID]bool, len(g.NodeSeq))
		for _, n := range g.NodeSeq {
			dirty[n.Fn] = true
		}
	} else {
		dirty = make(map[prog.FuncID]bool, len(asn.Codes)+len(asn.NumCC))
		for k := range asn.Codes {
			dirty[k.Target] = true
		}
		for fn := range asn.NumCC {
			if n := g.Node(fn); n != nil {
				for _, e := range n.Out {
					dirty[e.Target] = true
				}
			}
		}
	}
	rebuilt := 0
	var list []inEdge // scratch; only a list that differs is copied out
	for fn := range dirty {
		n := g.Node(fn)
		if n == nil {
			continue
		}
		// Node.In insertion order is the g.Edges registration order
		// filtered to this target, so a rebuilt list matches what a
		// from-scratch build produces entry for entry.
		list = list[:0]
		for _, e := range n.In {
			code, ok := asn.CodeOf(e)
			if !ok || !code.Encoded {
				continue
			}
			list = append(list, inEdge{
				site:   e.Site,
				caller: e.Caller,
				code:   code.Value,
				ncc:    asn.NumCCOf(e.Caller),
			})
		}
		old, _ := in.Get(int(fn))
		switch {
		case slices.Equal(list, old):
		case len(list) == 0:
			in.Delete(int(fn))
		default:
			in.Set(int(fn), slices.Clone(list))
			rebuilt += len(list)
		}
	}
	return &decodeIndex{in: in.Vec(), sites: sites.Vec(), edges: len(g.Edges)}, rebuilt
}
