// Package blenc implements the Ball–Larus-style calling-context
// numbering that both DACCE and PCCE build on (paper §2.1): processing
// nodes in topological order, numCC(n) is the number of calling contexts
// of n, and each acyclic in-edge e = (p → n) receives the code
// En(e) = Σ numCC(p') over the in-edges ordered before e. A context's id
// is then the sum of the edge codes along its call path, and the codes
// into any node partition [0, numCC(n)).
//
// Two aspects go beyond the textbook algorithm:
//
//   - Hot-first ordering: in-edges are ordered by descending observed
//     frequency before codes are assigned, so the hottest edge into every
//     node gets code 0 and needs no instrumentation at all (paper §4).
//
//   - Encoding-space budgeting: numCC is computed with saturating
//     arithmetic; if the ids outgrow the budget (PCCE on perlbench/gcc
//     overflows 64-bit ids, paper §6.3), the encoder excludes the coldest
//     eligible edges — never-invoked ones first, exactly the paper's
//     "edges that are never invoked in real runs are deleted" — until the
//     encoding fits, and reports that the unrestricted encoding
//     overflowed.
package blenc

import (
	"cmp"
	"iter"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"dacce/internal/graph"
	"dacce/internal/prog"
	"dacce/internal/pvec"
)

// freqOf reads an edge's observed frequency atomically: encoding passes
// may run concurrently with live threads (the adaptive runtime's
// concurrent prepare), whose traps and sampling controller bump Freq
// with atomic adds.
func freqOf(e *graph.Edge) int64 { return atomic.LoadInt64(&e.Freq) }

// Code is the per-edge result of an encoding pass.
type Code struct {
	// Value is the increment En(e); meaningful only when Encoded.
	Value uint64
	// Encoded reports whether the edge carries an id increment. If
	// false, invoking the edge saves context on the ccStack instead.
	Encoded bool
	// Back records whether the edge was classified as a back edge in
	// this pass (needed by the decoder to interpret ccStack entries of
	// this epoch).
	Back bool
}

// Assignment is an immutable snapshot of one encoding pass: the decode
// dictionary for one gTimeStamp epoch (paper Fig. 6). An edge has a
// code iff it existed when the pass ran; later edges have none.
//
// The dictionary is stored structurally shared with the one it was
// derived from (Encode's and Refresh's prev, a Builder's base): codes
// live in a persistent vector keyed by Edge.Seq and numCC in one keyed
// by FuncID, so an epoch allocates only for the entries that differ
// from the previous epoch. Look entries up with CodeOf and NumCCOf, or
// iterate them with AllCodes and AllNumCC.
type Assignment struct {
	// MaxID is the maximum context id assignable under this encoding;
	// run-time ids in (MaxID, 2*MaxID+1] mark sub-paths with saved
	// context on the ccStack.
	MaxID uint64
	// NumCC holds this epoch's delta of the numCC dictionary: the
	// functions whose calling-context count differs from (or is absent
	// in) the dictionary this one was derived from. With no base it
	// holds every function.
	NumCC map[prog.FuncID]uint64
	// Codes holds this epoch's delta of the code dictionary: the edges
	// whose code differs from (or is absent in) the dictionary this one
	// was derived from. With no base it holds every edge.
	Codes map[graph.EdgeKey]Code
	// Overflowed reports that the unrestricted encoding exceeded the
	// budget and cold edges were excluded to fit.
	Overflowed bool
	// UnrestrictedMaxID is the (saturating) MaxID before any exclusion;
	// equal to MaxID when Overflowed is false.
	UnrestrictedMaxID uint64
	// Excluded is the number of otherwise-eligible edges left unencoded
	// to fit the budget.
	Excluded int
	// EncodedEdges is the number of edges with a code in this pass.
	EncodedEdges int

	codes pvec.Vec[Code]   // by Edge.Seq
	numCC pvec.Vec[uint64] // by FuncID
	// back lists the graph's back edges in Seq order as of this pass.
	back []*graph.Edge
	// edges, nodes and roots are the graph sizes the pass saw: Refresh
	// takes g.Edges[edges:] and g.NodeSeq[nodes:] as the additions, and
	// reclassifies fully when roots changed. edges < 0 marks a
	// dictionary assembled by a Builder, whose graph is unknown.
	edges, nodes, roots int
}

// CodeOf returns the code for an edge and whether the edge existed at
// snapshot time. Safe for an edge that is concurrently being
// registered.
func (a *Assignment) CodeOf(e *graph.Edge) (Code, bool) {
	return a.codes.Get(int(atomic.LoadInt64(&e.Seq)))
}

// NumCCOf returns fn's number of calling contexts, or 0 if fn was not
// in the graph when the pass ran.
func (a *Assignment) NumCCOf(fn prog.FuncID) uint64 {
	n, _ := a.numCC.Get(int(fn))
	return n
}

// AllCodes iterates every edge's code in Seq order.
func (a *Assignment) AllCodes() iter.Seq2[int, Code] { return a.codes.All() }

// AllNumCC iterates every function's numCC in FuncID order.
func (a *Assignment) AllNumCC() iter.Seq2[prog.FuncID, uint64] {
	return func(yield func(prog.FuncID, uint64) bool) {
		for fn, n := range a.numCC.All() {
			if !yield(prog.FuncID(fn), n) {
				return
			}
		}
	}
}

// BackEdges returns the back edges of the pass's graph in Seq order;
// nil for a Builder's dictionary.
func (a *Assignment) BackEdges() []*graph.Edge { return a.back }

// Builder assembles a dictionary entry by entry — from a persisted
// snapshot, say — sharing storage with a base dictionary. Setting an
// entry to its base value stores nothing.
type Builder struct {
	a     *Assignment
	codes *pvec.Editor[Code]
	numCC *pvec.Editor[uint64]
}

// NewBuilder starts a dictionary on top of base (nil for none). The
// result starts out with all of base's entries.
func NewBuilder(base *Assignment) *Builder {
	var codes pvec.Vec[Code]
	var numCC pvec.Vec[uint64]
	if base != nil {
		codes, numCC = base.codes, base.numCC
	}
	return &Builder{
		a:     &Assignment{NumCC: map[prog.FuncID]uint64{}, Codes: map[graph.EdgeKey]Code{}, edges: -1},
		codes: codes.Edit(),
		numCC: numCC.Edit(),
	}
}

// SetCode sets a registered edge's code.
func (b *Builder) SetCode(e *graph.Edge, c Code) {
	setCode(b.codes, b.a.Codes, e, c)
}

// SetNumCC sets a function's numCC.
func (b *Builder) SetNumCC(fn prog.FuncID, n uint64) {
	setNumCC(b.numCC, b.a.NumCC, fn, n)
}

// Len returns how many codes and numCC entries the dictionary holds.
func (b *Builder) Len() (codes, numCC int) { return b.codes.Len(), b.numCC.Len() }

// Build returns the dictionary; the caller fills in the header fields
// (MaxID and the rest) before publishing it.
func (b *Builder) Build() *Assignment {
	b.a.codes, b.a.numCC = b.codes.Vec(), b.numCC.Vec()
	return b.a
}

// setCode stores c as e's code unless it already is, recording the
// change in delta.
func setCode(ed *pvec.Editor[Code], delta map[graph.EdgeKey]Code, e *graph.Edge, c Code) bool {
	if old, ok := ed.Get(int(e.Seq)); ok && old == c {
		return false
	}
	ed.Set(int(e.Seq), c)
	delta[graph.EdgeKey{Site: e.Site, Target: e.Target}] = c
	return true
}

// setNumCC is setCode for numCC entries.
func setNumCC(ed *pvec.Editor[uint64], delta map[prog.FuncID]uint64, fn prog.FuncID, n uint64) {
	if old, ok := ed.Get(int(fn)); ok && old == n {
		return
	}
	ed.Set(int(fn), n)
	delta[fn] = n
}

// Options configures an encoding pass.
type Options struct {
	// Budget caps MaxID; 0 means DefaultBudget. The factor-of-two
	// headroom for the ccStack marker range is the caller's concern:
	// budget 2^62 keeps 2*MaxID+1 < 2^63.
	Budget uint64
	// Exclude, if non-nil, marks edges the scheme does not want encoded
	// in this pass (e.g. DACCE's newly discovered edges awaiting the
	// next re-encoding, or PCCE's edges into dlopened modules). Back
	// edges are always excluded.
	Exclude func(e *graph.Edge) bool
	// NoHotOrder disables the hottest-first in-edge ordering (ablation:
	// without it no edge is guaranteed code 0, so hot paths keep their
	// instrumentation).
	NoHotOrder bool
}

// DefaultBudget is the largest MaxID the encoders allow, leaving one bit
// of headroom so 2*MaxID+1 still fits in the 64-bit id the prototype
// uses (paper §6.3).
const DefaultBudget = uint64(1) << 62

// satAdd adds with saturation, reporting overflow.
func satAdd(a, b uint64) (uint64, bool) {
	s := a + b
	if s < a {
		return math.MaxUint64, true
	}
	return s, false
}

// Encode runs one encoding pass over g. It classifies back edges as a
// side effect (Edge.Back is refreshed). Edge frequencies are read to
// order in-edges hottest-first; they are not modified. prev, if
// non-nil, is an earlier dictionary of the same graph: the result
// shares storage with it wherever entries are equal.
func Encode(g *graph.Graph, prev *Assignment, opt Options) *Assignment {
	budget := opt.Budget
	if budget == 0 {
		budget = DefaultBudget
	}
	g.ClassifyBackEdges()
	topo := g.TopoOrder()
	hotFirst := !opt.NoHotOrder

	eligible := func(e *graph.Edge) bool {
		if e.Back {
			return false
		}
		if opt.Exclude != nil && opt.Exclude(e) {
			return false
		}
		return true
	}

	// First pass: unrestricted, to detect overflow the way the paper
	// reports it.
	excluded := make(map[*graph.Edge]bool)
	num := getNumbering(len(g.Edges), g.Program().NumFuncs())
	defer putNumbering(num)
	sat := num.pass(g, topo, eligible, excluded, hotFirst)
	unrestricted := num.maxID
	if !sat && num.maxID <= budget {
		return num.commit(g, prev, false, unrestricted, 0)
	}

	// Overflow: exclude never-invoked eligible edges first (the paper's
	// fix), then progressively colder halves of the remainder.
	for _, e := range g.Edges {
		if eligible(e) && freqOf(e) == 0 {
			excluded[e] = true
		}
	}
	if sat := num.pass(g, topo, eligible, excluded, hotFirst); !sat && num.maxID <= budget {
		return num.commit(g, prev, true, unrestricted, len(excluded))
	}

	// Still too large: drop the coldest half of the remaining encoded
	// edges until the encoding fits. Each round halves the candidate
	// set, so this terminates quickly.
	remaining := make([]*graph.Edge, 0)
	for _, e := range g.Edges {
		if eligible(e) && !excluded[e] {
			remaining = append(remaining, e)
		}
	}
	sort.SliceStable(remaining, func(i, j int) bool { return freqOf(remaining[i]) < freqOf(remaining[j]) })
	for len(remaining) > 0 {
		drop := (len(remaining) + 1) / 2
		for _, e := range remaining[:drop] {
			excluded[e] = true
		}
		remaining = remaining[drop:]
		if sat := num.pass(g, topo, eligible, excluded, hotFirst); !sat && num.maxID <= budget {
			return num.commit(g, prev, true, unrestricted, len(excluded))
		}
	}
	// Nothing encoded at all: every edge goes through the ccStack. This
	// cannot overflow (MaxID is 0).
	num.pass(g, topo, eligible, excluded, hotFirst)
	return num.commit(g, prev, true, unrestricted, len(excluded))
}

// numbering is one sweep's result in flat form: codes by Edge.Seq,
// numCC by FuncID.
type numbering struct {
	codes   []Code
	numCC   []uint64
	maxID   uint64
	encoded int
	ins     []*graph.Edge // a node's eligible in-edges, reused across nodes
}

// numberings recycles numbering buffers across passes: commit copies
// every entry into the Assignment, and numCC alone is as long as the
// program has functions, so a fresh numbering per pass would be most of
// a full pass's garbage.
var numberings sync.Pool

// getNumbering returns a numbering sized for edges edges and funcs
// functions, with numCC zeroed; pass overwrites every code.
func getNumbering(edges, funcs int) *numbering {
	num, _ := numberings.Get().(*numbering)
	if num == nil {
		num = &numbering{}
	}
	num.codes = slices.Grow(num.codes[:0], edges)[:edges]
	num.numCC = slices.Grow(num.numCC[:0], funcs)[:funcs]
	clear(num.numCC)
	return num
}

// putNumbering recycles num, dropping its edge pointers so a pooled
// buffer never keeps a finished graph alive.
func putNumbering(num *numbering) {
	clear(num.ins[:cap(num.ins)])
	numberings.Put(num)
}

// pass performs one numbering sweep with the given exclusions,
// overwriting num, and reports whether any numCC saturated.
func (num *numbering) pass(g *graph.Graph, topo []*graph.Node, eligible func(*graph.Edge) bool, excluded map[*graph.Edge]bool, hotFirst bool) bool {
	num.maxID, num.encoded = 0, 0
	saturated := false

	// Record every live edge so the decode dictionary knows the graph
	// shape of this epoch.
	for _, e := range g.Edges {
		num.codes[e.Seq] = Code{Back: e.Back}
	}

	for _, n := range topo {
		// Gather eligible in-edges, hottest first. Ties break on
		// insertion order for determinism.
		ins := num.ins[:0]
		for _, e := range n.In {
			if eligible(e) && !excluded[e] {
				ins = append(ins, e)
			}
		}
		num.ins = ins
		if hotFirst {
			slices.SortStableFunc(ins, hotterFirst)
		}
		var acc uint64
		for _, e := range ins {
			num.codes[e.Seq] = Code{Value: acc, Encoded: true, Back: e.Back}
			num.encoded++
			var over bool
			acc, over = satAdd(acc, num.numCC[e.Caller])
			saturated = saturated || over
		}
		// Every node has at least one context: the entry, nodes reached
		// only through unencoded edges (sub-path heads), and unreachable
		// nodes all act as roots of their sub-paths.
		if acc == 0 {
			acc = 1
		}
		num.numCC[n.Fn] = acc
		if acc-1 > num.maxID {
			num.maxID = acc - 1
		}
	}
	return saturated
}

// hotterFirst orders edges by descending frequency, then by
// registration.
func hotterFirst(a, b *graph.Edge) int {
	if fa, fb := freqOf(a), freqOf(b); fa != fb {
		return cmp.Compare(fb, fa)
	}
	return cmp.Compare(a.Seq, b.Seq)
}

// commit turns the numbering into an Assignment sharing storage with
// prev.
func (num *numbering) commit(g *graph.Graph, prev *Assignment, overflowed bool, unrestricted uint64, excluded int) *Assignment {
	a := &Assignment{
		MaxID:             num.maxID,
		Overflowed:        overflowed,
		UnrestrictedMaxID: unrestricted,
		Excluded:          excluded,
		EncodedEdges:      num.encoded,
		edges:             len(g.Edges),
		nodes:             len(g.NodeSeq),
		roots:             len(g.Roots()),
	}
	var codes pvec.Vec[Code]
	var numCC pvec.Vec[uint64]
	if prev != nil {
		codes, numCC = prev.codes, prev.numCC
	}
	for {
		ce, ne := codes.Edit(), numCC.Edit()
		// Size the delta maps exactly: a full pass can renumber half the
		// graph, and growing the maps to that size would double their
		// garbage.
		nc, nn := 0, 0
		for _, e := range g.Edges {
			if old, ok := ce.Get(int(e.Seq)); !ok || old != num.codes[e.Seq] {
				nc++
			}
		}
		for _, n := range g.NodeSeq {
			if old, ok := ne.Get(int(n.Fn)); !ok || old != num.numCC[n.Fn] {
				nn++
			}
		}
		a.Codes, a.NumCC = make(map[graph.EdgeKey]Code, nc), make(map[prog.FuncID]uint64, nn)
		for _, e := range g.Edges {
			setCode(ce, a.Codes, e, num.codes[e.Seq])
			if e.Back {
				a.back = append(a.back, e)
			}
		}
		for _, n := range g.NodeSeq {
			setNumCC(ne, a.NumCC, n.Fn, num.numCC[n.Fn])
		}
		if ce.Len() == len(g.Edges) && ne.Len() == len(g.NodeSeq) {
			a.codes, a.numCC = ce.Vec(), ne.Vec()
			return a
		}
		// prev holds entries this graph does not (a hostile snapshot's
		// dictionary): start from nothing instead.
		codes, numCC, a.back = pvec.Vec[Code]{}, pvec.Vec[uint64]{}, nil
	}
}
