package core

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sort"
	"testing"

	"dacce/internal/machine"
	"dacce/internal/prog"
)

// epochsTopology stages the epochs benchmark's graph: main calls each
// of 256 callers, each caller owns the direct sites of a slice of the
// leaf tier, and every round reserves 64 more direct sites from random
// callers to existing leaves, undiscovered at staging.
func epochsTopology(tb testing.TB, edges, rounds int) (*prog.Program, []Discovery, [][]Discovery) {
	tb.Helper()
	const callers, delta = 256, 64
	rng := rand.New(rand.NewPCG(uint64(edges), 13))
	b := prog.NewBuilder()
	mainF := b.Func("main")
	var base []Discovery
	callerFns := make([]prog.FuncID, callers)
	for i := range callerFns {
		callerFns[i] = b.Func(fmt.Sprintf("c%d", i))
		base = append(base, Discovery{Site: b.CallSite(mainF, callerFns[i]), Fn: callerFns[i], Freq: 1})
	}
	leafFns := make([]prog.FuncID, edges-callers)
	for i := range leafFns {
		leafFns[i] = b.Func(fmt.Sprintf("l%d", i))
		caller := callerFns[rng.IntN(callers)]
		base = append(base, Discovery{Site: b.CallSite(caller, leafFns[i]), Fn: leafFns[i], Freq: 1})
	}
	deltas := make([][]Discovery, rounds)
	for r := range deltas {
		for i := 0; i < delta; i++ {
			leaf := leafFns[rng.IntN(len(leafFns))]
			deltas[r] = append(deltas[r], Discovery{Site: b.CallSite(callerFns[rng.IntN(callers)], leaf), Fn: leaf, Freq: 1})
		}
	}
	return b.MustBuild(), base, deltas
}

// medianPassAlloc stages the topology at the given size and returns the
// median bytes one 64-edge ReencodeNow(nil, true) allocates.
func medianPassAlloc(t *testing.T, edges int) uint64 {
	p, base, deltas := epochsTopology(t, edges, 9)
	d := New(p, Options{Incremental: true})
	d.InjectDiscoveries(base)
	d.Install(machine.New(p, d, machine.Config{}))
	d.ReencodeNow(nil, false)
	var allocs []uint64
	var ms runtime.MemStats
	for _, delta := range deltas {
		d.InjectDiscoveries(delta)
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		d.ReencodeNow(nil, true)
		runtime.ReadMemStats(&ms)
		allocs = append(allocs, ms.TotalAlloc-before)
		st := d.Stats()
		if er := st.History[len(st.History)-1]; !er.Incremental || er.ChangedEdges != len(delta) {
			t.Fatalf("%d edges: pass incremental=%v changed %d, want an incremental pass changing %d", edges, er.Incremental, er.ChangedEdges, len(delta))
		}
	}
	sort.Slice(allocs, func(i, j int) bool { return allocs[i] < allocs[j] })
	return allocs[len(allocs)/2]
}

// TestIncrementalPassAllocationScalesWithDelta is the O(delta) gate of
// the epoch commit: a 64-edge incremental pass on a 64k-edge graph must
// allocate within 2× of the same pass on a 4k-edge graph. Structurally
// shared dictionaries and decode indexes, and the delta-only Refresh,
// are what keep it flat; copying any per-epoch table whole makes it
// grow with the graph.
func TestIncrementalPassAllocationScalesWithDelta(t *testing.T) {
	small := medianPassAlloc(t, 4<<10)
	large := medianPassAlloc(t, 64<<10)
	t.Logf("median bytes per 64-edge pass: %d at 4k edges, %d at 64k edges", small, large)
	if large > 2*small {
		t.Errorf("a 64-edge pass allocates %d bytes at 64k edges, more than 2× the %d at 4k edges", large, small)
	}
}
