package core

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"dacce/internal/blenc"
	"dacce/internal/prog"
)

// minimalDelta is the brute-force diff of two full dictionaries: every
// entry of cur that prev lacks or holds with another value, in key
// order. A nil prev holds nothing.
func minimalDelta(prev, cur *blenc.Assignment) ([]StateNumCC, []StateCode) {
	var numCC []StateNumCC
	var codes []StateCode
	prevNumCC, prevCodes := map[prog.FuncID]uint64{}, map[int]blenc.Code{}
	if prev != nil {
		for fn, n := range prev.AllNumCC() {
			prevNumCC[fn] = n
		}
		for seq, c := range prev.AllCodes() {
			prevCodes[seq] = c
		}
	}
	for fn, n := range cur.AllNumCC() {
		if old, ok := prevNumCC[fn]; !ok || old != n {
			numCC = append(numCC, StateNumCC{Fn: fn, NumCC: n})
		}
	}
	for seq, c := range cur.AllCodes() {
		if old, ok := prevCodes[seq]; !ok || old != c {
			codes = append(codes, StateCode{Edge: seq, Encoded: c.Encoded, Value: c.Value, Back: c.Back})
		}
	}
	return numCC, codes
}

// sameDict reports whether two dictionaries hold the same header and
// the same entries.
func sameDict(a, b *blenc.Assignment) bool {
	type entries struct {
		numCC map[prog.FuncID]uint64
		codes map[int]blenc.Code
	}
	collect := func(x *blenc.Assignment) entries {
		e := entries{map[prog.FuncID]uint64{}, map[int]blenc.Code{}}
		for fn, n := range x.AllNumCC() {
			e.numCC[fn] = n
		}
		for seq, c := range x.AllCodes() {
			e.codes[seq] = c
		}
		return e
	}
	ea, eb := collect(a), collect(b)
	return a.MaxID == b.MaxID && a.Overflowed == b.Overflowed &&
		a.UnrestrictedMaxID == b.UnrestrictedMaxID && a.Excluded == b.Excluded &&
		a.EncodedEdges == b.EncodedEdges &&
		maps.Equal(ea.numCC, eb.numCC) && maps.Equal(ea.codes, eb.codes)
}

// TestExportStateEmitsMinimalDelta grows random cyclic graphs through
// full, incremental and straggler-extended passes (a prepared plan that
// meets new edges at the stop, as a pass racing running threads does),
// under budgets tight enough that some passes exclude edges. Every
// exported epoch must list exactly the entries a brute-force diff of the
// two full dictionaries finds, and Restore must rebuild every epoch's
// dictionary entry for entry.
func TestExportStateEmitsMinimalDelta(t *testing.T) {
	kinds := map[string]int{}
	for seed := uint64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewPCG(seed, 14))
		b := prog.NewBuilder()
		fns := []prog.FuncID{b.Func("main")}
		for i := 1; i < 24; i++ {
			fns = append(fns, b.Func(fmt.Sprintf("f%d", i)))
		}
		var found []Discovery
		for i := 0; i < 90; i++ {
			from, to := rng.IntN(len(fns)), 1+rng.IntN(len(fns)-1)
			if rng.IntN(5) != 0 && from > to {
				from, to = to, from
			}
			found = append(found, Discovery{Site: b.CallSite(fns[from], fns[to]), Fn: fns[to], Freq: int64(1 + rng.IntN(3))})
		}
		p := b.MustBuild()
		opt := Options{Incremental: true}
		if seed%3 == 0 {
			opt.Budget = 1 << (6 + seed%5)
		}
		d := New(p, opt)
		for len(found) > 0 {
			n := min(1+rng.IntN(8), len(found))
			d.InjectDiscoveries(found[:n])
			found = found[n:]
			switch k := rng.IntN(4); {
			case k == 0:
				d.ReencodeNow(nil, true)
				kinds["incremental"]++
			case k == 1 || len(found) == 0:
				d.ReencodeNow(nil, false)
				kinds["full"]++
			default:
				mode := passForceIncremental
				if k == 3 {
					mode = passForceFull
				}
				d.mu.Lock()
				plan := d.preparePlanLocked(mode, d.trigSnapshot())
				d.mu.Unlock()
				n := min(1+rng.IntN(4), len(found))
				d.InjectDiscoveries(found[:n])
				found = found[n:]
				d.mu.Lock()
				plan = d.extendPlanLocked(plan, d.trigSnapshot())
				now := time.Now()
				d.commitPlanLocked(nil, plan, now, now)
				d.mu.Unlock()
				kinds["extended"]++
			}
		}

		st := d.ExportState()
		if err := st.Validate(); err != nil {
			t.Fatalf("seed %d: exported state invalid: %v", seed, err)
		}
		r, err := Restore(p, opt, st)
		if err != nil {
			t.Fatalf("seed %d: restore: %v", seed, err)
		}
		var prev *blenc.Assignment
		for e := uint32(0); e <= d.Epoch(); e++ {
			cur := d.Dict(e)
			numCC, codes := minimalDelta(prev, cur)
			if ep := st.Epochs[e]; !slices.Equal(ep.NumCC, numCC) || !slices.Equal(ep.Codes, codes) {
				t.Fatalf("seed %d epoch %d: exported numCC %v codes %v, want the minimal delta numCC %v codes %v",
					seed, e, ep.NumCC, ep.Codes, numCC, codes)
			}
			if !sameDict(r.Dict(e), cur) {
				t.Fatalf("seed %d epoch %d: restored dictionary differs from the exported encoder's", seed, e)
			}
			prev = cur
		}
	}
	t.Logf("passes: %v", kinds)
	for _, k := range []string{"full", "incremental", "extended"} {
		if kinds[k] == 0 {
			t.Errorf("no %s pass ran", k)
		}
	}
}

// TestExportStateDropsUnchangedEntries: an epoch's stored delta maps
// are not guaranteed minimal (extendPlanLocked merges the prepare's and
// the straggler refresh's), so the export must compare every entry with
// the previous epoch. Entries planted in the newest epoch's delta maps
// with the previous epoch's values must not be exported.
func TestExportStateDropsUnchangedEntries(t *testing.T) {
	p, base, extra := twoLevelProgram(t, 4, 4, 2)
	d := New(p, Options{Incremental: true})
	d.InjectDiscoveries(base)
	d.ReencodeNow(nil, false)
	d.InjectDiscoveries(extra)
	d.ReencodeNow(nil, true)
	want := d.ExportState().Epochs[2]

	prev, cur := d.Dict(1), d.Dict(2)
	planted := 0
	for _, e := range d.g.Edges {
		if c, ok := prev.CodeOf(e); ok {
			if _, changed := cur.Codes[edgeKeyOf(e)]; !changed {
				cur.Codes[edgeKeyOf(e)] = c
				planted++
			}
		}
	}
	for fn, n := range prev.AllNumCC() {
		if _, changed := cur.NumCC[fn]; !changed {
			cur.NumCC[fn] = n
			planted++
		}
	}
	if planted == 0 {
		t.Fatal("the pass changed every entry; nothing to plant")
	}
	if got := d.ExportState().Epochs[2]; !slices.Equal(got.Codes, want.Codes) || !slices.Equal(got.NumCC, want.NumCC) {
		t.Errorf("with %d unchanged entries planted, epoch 2 exports codes %v numCC %v, want codes %v numCC %v",
			planted, got.Codes, got.NumCC, want.Codes, want.NumCC)
	}
}
