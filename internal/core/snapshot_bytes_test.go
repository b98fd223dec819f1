package core_test

import (
	"slices"
	"testing"

	"dacce/internal/core"
	"dacce/internal/machine"
	"dacce/internal/persist"
)

// medianSnapshotGrowth stages the epochs topology at the given size and
// returns the median number of bytes one 64-edge incremental pass adds
// to the marshalled snapshot.
func medianSnapshotGrowth(t *testing.T, edges int) int {
	p, base, deltas := core.EpochsTopology(t, edges, 9)
	d := core.New(p, core.Options{Incremental: true})
	d.InjectDiscoveries(base)
	d.Install(machine.New(p, d, machine.Config{}))
	d.ReencodeNow(nil, false)
	size := func() int {
		data, err := persist.Marshal(d.ExportState())
		if err != nil {
			t.Fatal(err)
		}
		return len(data)
	}
	last := size()
	var growth []int
	for _, delta := range deltas {
		d.InjectDiscoveries(delta)
		d.ReencodeNow(nil, true)
		if h := d.Stats().History; !h[len(h)-1].Incremental {
			t.Fatalf("%d edges: pass %d was not incremental", edges, len(h))
		}
		n := size()
		growth = append(growth, n-last)
		last = n
	}
	slices.Sort(growth)
	return growth[len(growth)/2]
}

// TestSnapshotBytesScaleWithDelta is the O(delta) gate of the snapshot
// format: the bytes a 64-edge incremental pass adds to the snapshot at
// 64k edges must stay within 2× of those at 4k edges. Storing each
// epoch as its change from the one before is what keeps it flat; storing
// any epoch's full dictionary makes it grow with the graph.
func TestSnapshotBytesScaleWithDelta(t *testing.T) {
	small := medianSnapshotGrowth(t, 4<<10)
	large := medianSnapshotGrowth(t, 64<<10)
	t.Logf("median snapshot bytes per 64-edge pass: %d at 4k edges, %d at 64k edges", small, large)
	if large > 2*small {
		t.Errorf("a 64-edge pass adds %d snapshot bytes at 64k edges, more than 2× the %d at 4k edges", large, small)
	}
}
