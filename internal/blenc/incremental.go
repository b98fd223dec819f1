package blenc

import (
	"sort"

	"dacce/internal/graph"
	"dacce/internal/prog"
)

// Refresh computes the assignment after new edges were registered on
// prev's graph, reusing prev wherever possible: only nodes downstream
// of the additions are renumbered, and every node keeps its previous
// in-edge order (new edges are appended coldest-last), so unaffected
// codes are bit-equal to prev's. This is the incremental counterpart of
// Encode — an extension beyond the paper, whose whole-graph
// re-encoding cost grows with the graph (Table 1 "costs"); an adaptive
// runtime can use Refresh for the frequent new-edges trigger and
// reserve full re-encodes for frequency reordering.
//
// The additions are the edges and nodes registered since prev's pass.
// Refresh classifies them incrementally, in registration order: an
// edge out of an unreachable node is a back edge, and an edge u → v out
// of a reachable u is a tree-or-cross edge, changing no other
// classification, when the closure of v contains neither u nor a back
// edge (every cycle holds a back edge, so that closure is acyclic and
// the depth-first search outside it is unchanged). The closures walked
// for that are exactly the affected region the renumbering needs. Any
// other addition — one closing a cycle, one whose closure holds a back
// edge — and a new root make Refresh rerun the full ClassifyBackEdges.
// Time and allocation are then O(additions + affected region) on the
// classification fast path, and the full search's O(graph) otherwise.
//
// Refresh falls back to a full Encode (and reports it) when the
// additions change any old back-edge classification — a new cycle
// invalidates prev's structure — when prev overflowed, or when the
// budget is exceeded.
//
// The returned changed set lists the edges whose codes differ from
// prev, including the new ones (every edge when full is true); the
// caller only needs to repatch those sites.
func Refresh(g *graph.Graph, prev *Assignment, opt Options) (a *Assignment, changed []graph.EdgeKey, full bool) {
	budget := opt.Budget
	if budget == 0 {
		budget = DefaultBudget
	}
	if prev.Overflowed {
		// prev excluded cold edges; the exclusion set depends on global
		// frequencies, so recompute fully.
		return fullRefresh(g, prev, opt)
	}

	addedEdges, addedNodes := prev.additions(g)
	back := prev.back
	affected, ok := map[prog.FuncID]bool(nil), false
	if prev.edges >= 0 && len(g.Roots()) == prev.roots {
		var newBack []*graph.Edge
		affected, newBack, ok = classifyAdded(g, prev, addedEdges)
		if ok && len(newBack) > 0 {
			back = append(back[:len(back):len(back)], newBack...)
		}
	}
	if !ok {
		g.ClassifyBackEdges()
		back = nil
		for _, e := range g.Edges {
			if c, had := prev.codes.Get(int(e.Seq)); had && c.Back != e.Back {
				return fullRefresh(g, prev, opt)
			}
			if e.Back {
				back = append(back, e)
			}
		}
		affected = closure(g, addedEdges)
	}

	a = &Assignment{
		MaxID:        prev.MaxID,
		NumCC:        make(map[prog.FuncID]uint64, len(affected)+len(addedNodes)),
		Codes:        make(map[graph.EdgeKey]Code, len(affected)+len(addedEdges)),
		EncodedEdges: prev.EncodedEdges,
		back:         back,
		edges:        len(g.Edges),
		nodes:        len(g.NodeSeq),
		roots:        len(g.Roots()),
	}
	codes, numCC := prev.codes.Edit(), prev.numCC.Edit()
	// New edges enter unencoded; the renumbering below encodes the
	// eligible ones. New nodes carry at least one context.
	for _, e := range addedEdges {
		setCode(codes, a.Codes, e, Code{Back: e.Back})
		changed = append(changed, graph.EdgeKey{Site: e.Site, Target: e.Target})
	}
	for _, n := range addedNodes {
		setNumCC(numCC, a.NumCC, n.Fn, 1)
	}

	// Renumber affected nodes in topological order, keeping prev's
	// in-edge order and appending edges prev never saw.
	shrank := false
	for _, n := range topoOrder(g, affected) {
		ins := make([]*graph.Edge, 0, len(n.In))
		for _, e := range n.In {
			if !e.Back && (opt.Exclude == nil || !opt.Exclude(e)) {
				ins = append(ins, e)
			}
		}
		sort.SliceStable(ins, func(i, j int) bool {
			ci, iOld := prev.codes.Get(int(ins[i].Seq))
			cj, jOld := prev.codes.Get(int(ins[j].Seq))
			iOld = iOld && ci.Encoded
			jOld = jOld && cj.Encoded
			switch {
			case iOld && jOld:
				return ci.Value < cj.Value // previous order
			case iOld:
				return true // old edges before new ones
			case jOld:
				return false
			default:
				return ins[i].Seq < ins[j].Seq
			}
		})
		var acc uint64
		for _, e := range ins {
			c := Code{Value: acc, Encoded: true}
			if old, had := prev.codes.Get(int(e.Seq)); had {
				if setCode(codes, a.Codes, e, c) {
					changed = append(changed, graph.EdgeKey{Site: e.Site, Target: e.Target})
					if !old.Encoded {
						a.EncodedEdges++
					}
				}
			} else {
				setCode(codes, a.Codes, e, c)
				a.EncodedEdges++
			}
			ncc, _ := numCC.Get(int(e.Caller))
			var over bool
			if acc, over = satAdd(acc, ncc); over {
				return fullRefresh(g, prev, opt)
			}
		}
		if acc == 0 {
			acc = 1
		}
		if old, had := numCC.Get(int(n.Fn)); had && acc < old {
			shrank = true
		}
		setNumCC(numCC, a.NumCC, n.Fn, acc)
		if acc-1 > a.MaxID {
			a.MaxID = acc - 1
		}
	}
	a.codes, a.numCC = codes.Vec(), numCC.Vec()
	if shrank {
		// An exclusion shrank some numCC, possibly prev's maximum.
		a.MaxID = 0
		for _, n := range a.numCC.All() {
			a.MaxID = max(a.MaxID, n-1)
		}
	}
	a.UnrestrictedMaxID = a.MaxID
	if a.MaxID > budget {
		return fullRefresh(g, prev, opt)
	}
	return a, changed, false
}

// additions returns the edges and nodes registered since prev's pass,
// in registration order. A Builder's dictionary does not know its
// graph, so for one the whole graph is scanned for entries it lacks.
func (prev *Assignment) additions(g *graph.Graph) ([]*graph.Edge, []*graph.Node) {
	if prev.edges >= 0 {
		return g.Edges[prev.edges:], g.NodeSeq[prev.nodes:]
	}
	var edges []*graph.Edge
	var nodes []*graph.Node
	for _, e := range g.Edges {
		if _, ok := prev.codes.Get(int(e.Seq)); !ok {
			edges = append(edges, e)
		}
	}
	for _, n := range g.NodeSeq {
		if _, ok := prev.numCC.Get(int(n.Fn)); !ok {
			nodes = append(nodes, n)
		}
	}
	return edges, nodes
}

// classifyAdded sets Edge.Back on the added edges without a full
// depth-first search, and returns the non-back-edge closure of their
// targets together with the added edges it classified as back edges.
// It reports false when an addition needs the full search; the flags it
// set are then stale.
//
// Edge i is judged against the graph of the edges registered before it,
// so the out-edges walked are those with a smaller Seq. The region
// walked so far is closed under those out-edges and holds no back
// edge; a walk whose start is not inside it can stop at its border.
//
// Every old edge whose flag the judgement reads must still carry prev's
// classification: a refresh that was computed and then thrown away (a
// pass re-prepared against a newer epoch) may have reclassified the
// graph, and a stale flag sends the caller to the full search. The
// reachability tests check the in-edges they read; every edge a walk
// crosses is an in-edge of the region, checked at the end together with
// the region's other in-edges, whose flags the renumbering reads.
func classifyAdded(g *graph.Graph, prev *Assignment, added []*graph.Edge) (map[prog.FuncID]bool, []*graph.Edge, bool) {
	stale := func(e *graph.Edge) bool {
		c, old := prev.codes.Get(int(e.Seq))
		return old && c.Back != e.Back
	}
	region := make(map[prog.FuncID]bool)
	var newBack []*graph.Edge
	var stack []prog.FuncID
	for _, e := range added {
		reached, ok := reachable(g, e.Caller, e.Seq, stale)
		if !ok {
			return nil, nil, false
		}
		if !reached {
			e.Back = true
			newBack = append(newBack, e)
			continue
		}
		e.Back = false
		// Inside the region, the caller may be downstream of the target:
		// walk the target's closure on its own.
		seen := region
		if region[e.Caller] {
			seen = make(map[prog.FuncID]bool)
		}
		if seen[e.Target] {
			continue
		}
		seen[e.Target] = true
		stack = append(stack[:0], e.Target)
		for len(stack) > 0 {
			fn := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if fn == e.Caller {
				return nil, nil, false // the edge closes a cycle
			}
			for _, o := range g.Node(fn).Out {
				if o.Seq >= e.Seq {
					break // Out is in registration order
				}
				if o.Back {
					return nil, nil, false
				}
				if !seen[o.Target] {
					seen[o.Target] = true
					stack = append(stack, o.Target)
				}
			}
		}
		for fn := range seen {
			region[fn] = true
		}
	}
	for fn := range region {
		for _, e := range g.Node(fn).In {
			if stale(e) {
				return nil, nil, false
			}
		}
	}
	return region, newBack, true
}

// reachable reports whether fn is reachable from a root in the graph of
// the edges with Seq below lim: it is a root, or one of those in-edges
// is not a back edge (edges out of unreachable nodes all are). ok is
// false when a flag it read is stale.
func reachable(g *graph.Graph, fn prog.FuncID, lim int64, stale func(*graph.Edge) bool) (reached, ok bool) {
	if g.IsRoot(fn) {
		return true, true
	}
	for _, e := range g.Node(fn).In {
		if e.Seq >= lim {
			break // In is in registration order
		}
		if stale(e) {
			return false, false
		}
		if !e.Back {
			return true, true
		}
	}
	return false, true
}

// closure returns the targets of the non-back added edges plus
// everything reachable from them through non-back edges.
func closure(g *graph.Graph, added []*graph.Edge) map[prog.FuncID]bool {
	region := make(map[prog.FuncID]bool)
	var stack []prog.FuncID
	mark := func(fn prog.FuncID) {
		if !region[fn] {
			region[fn] = true
			stack = append(stack, fn)
		}
	}
	for _, e := range added {
		if !e.Back {
			mark(e.Target)
		}
	}
	for len(stack) > 0 {
		fn := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.Node(fn).Out {
			if !e.Back {
				mark(e.Target)
			}
		}
	}
	return region
}

// topoOrder orders the region's nodes topologically along its internal
// non-back edges (Kahn). A region node's other callers lie outside the
// region, so their numCC is already final.
func topoOrder(g *graph.Graph, region map[prog.FuncID]bool) []*graph.Node {
	indeg := make(map[prog.FuncID]int, len(region))
	for fn := range region {
		for _, e := range g.Node(fn).In {
			if !e.Back && region[e.Caller] {
				indeg[fn]++
			}
		}
	}
	order := make([]*graph.Node, 0, len(region))
	for fn := range region {
		if indeg[fn] == 0 {
			order = append(order, g.Node(fn))
		}
	}
	for i := 0; i < len(order); i++ {
		for _, e := range order[i].Out {
			if e.Back || !region[e.Target] {
				continue
			}
			if indeg[e.Target]--; indeg[e.Target] == 0 {
				order = append(order, g.Node(e.Target))
			}
		}
	}
	return order
}

// fullRefresh is the fallback: a complete Encode, with every edge
// reported as changed.
func fullRefresh(g *graph.Graph, prev *Assignment, opt Options) (*Assignment, []graph.EdgeKey, bool) {
	a := Encode(g, prev, opt)
	changed := make([]graph.EdgeKey, 0, len(g.Edges))
	for _, e := range g.Edges {
		changed = append(changed, graph.EdgeKey{Site: e.Site, Target: e.Target})
	}
	return a, changed, true
}
