package pvec

import (
	"math/rand/v2"
	"sort"
	"testing"
)

// TestVecMatchesMapModel applies random edit batches and checks every
// version ever produced against a map model of it, so an edit that
// leaked into a shared node would show up in an older version.
func TestVecMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	type version struct {
		v     Vec[int]
		model map[int]int
	}
	var versions []version
	cur, model := Vec[int]{}, map[int]int{}
	for round := 0; round < 60; round++ {
		ed := cur.Edit()
		span := 1 << (rng.IntN(16) + 1)
		for k := rng.IntN(40); k > 0; k-- {
			i := rng.IntN(span)
			if rng.IntN(5) == 0 {
				ed.Delete(i)
				delete(model, i)
				continue
			}
			x := rng.Int()
			ed.Set(i, x)
			model[i] = x
		}
		cur = ed.Vec()
		snapshot := make(map[int]int, len(model))
		for k, v := range model {
			snapshot[k] = v
		}
		versions = append(versions, version{cur, snapshot})
	}
	for r, ver := range versions {
		if ver.v.Len() != len(ver.model) {
			t.Fatalf("version %d: Len %d, model has %d", r, ver.v.Len(), len(ver.model))
		}
		var keys []int
		for k, x := range ver.model {
			keys = append(keys, k)
			if got, ok := ver.v.Get(k); !ok || got != x {
				t.Fatalf("version %d: Get(%d) = %d,%v want %d", r, k, got, ok, x)
			}
		}
		sort.Ints(keys)
		i := 0
		for k, x := range ver.v.All() {
			if i >= len(keys) || k != keys[i] || x != ver.model[k] {
				t.Fatalf("version %d: All yields (%d,%d) at position %d", r, k, x, i)
			}
			i++
		}
		if i != len(keys) {
			t.Fatalf("version %d: All yields %d entries, want %d", r, i, len(keys))
		}
		for _, k := range []int{-1, 1 << 20, 3} {
			if _, in := ver.model[k]; in {
				continue
			}
			if _, ok := ver.v.Get(k); ok {
				t.Fatalf("version %d: absent index %d reported present", r, k)
			}
		}
	}
}

// TestEditSharesUntouchedLeaves checks the point of path copying: an
// edit that touches one leaf leaves every other leaf shared.
func TestEditSharesUntouchedLeaves(t *testing.T) {
	ed := Vec[int]{}.Edit()
	for i := 0; i < 4096; i++ {
		ed.Set(i, i)
	}
	base := ed.Vec()
	ed = base.Edit()
	ed.Set(100, -1)
	next := ed.Vec()
	shared, copied := 0, 0
	for k := 0; k < width; k++ {
		a, b := base.root.kids[k], next.root.kids[k]
		if a == nil {
			continue
		}
		for j := 0; j < width; j++ {
			if a.leaves[j] == nil {
				continue
			}
			if a.leaves[j] == b.leaves[j] {
				shared++
			} else {
				copied++
			}
		}
	}
	if copied != 1 || shared != 4096/width-1 {
		t.Errorf("one-entry edit copied %d leaves and shared %d", copied, shared)
	}
	if x, _ := base.Get(100); x != 100 {
		t.Errorf("base changed under an edit: Get(100) = %d", x)
	}
	if x, _ := next.Get(100); x != -1 {
		t.Errorf("edit lost: Get(100) = %d", x)
	}
}
