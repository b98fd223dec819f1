// Package pvec implements a persistent sparse vector over dense
// non-negative int keys: a 32-way radix tree whose updates copy only
// the path from the root to the touched leaf (path copying). Every Vec
// value is immutable, so a published one can be read from any number
// of goroutines without locks, while the next version shares every
// untouched leaf with it. The encoder keeps one version per epoch —
// edge codes by Edge.Seq, numCC and decode in-lists by FuncID, the
// per-site edge table by SiteID — so an epoch stores only the entries
// that differ from the epoch before it.
//
// Updates go through an Editor, which owns the nodes it has already
// copied and mutates them in place: a batch of k updates copies each
// touched node once, not once per update.
package pvec

import (
	"iter"
	"sync/atomic"
)

const (
	bits  = 5
	width = 1 << bits
	mask  = width - 1
)

// Vec is an immutable sparse vector. The zero Vec is empty.
type Vec[T any] struct {
	root *inner[T]
	// shift is the bit offset of the root's child index; the leaves
	// hang off the level whose shift is bits.
	shift uint
	n     int
}

// inner is an interior node. Exactly one of its arrays is in use:
// leaves at the bottom interior level, kids above it.
type inner[T any] struct {
	owner  uint64
	kids   [width]*inner[T]
	leaves [width]*leaf[T]
}

type leaf[T any] struct {
	owner uint64
	set   uint32 // presence bit per slot
	vals  [width]T
}

// Len returns the number of present entries.
func (v Vec[T]) Len() int { return v.n }

// covers reports whether index i fits under the current root.
func (v Vec[T]) covers(i int) bool { return v.root != nil && i>>(v.shift+bits) == 0 }

// Get returns the entry at i and whether it is present.
func (v Vec[T]) Get(i int) (x T, ok bool) {
	if i < 0 || !v.covers(i) {
		return x, false
	}
	n := v.root
	for s := v.shift; s > bits; s -= bits {
		if n = n.kids[(i>>s)&mask]; n == nil {
			return x, false
		}
	}
	l := n.leaves[(i>>bits)&mask]
	if l == nil || l.set&(1<<(i&mask)) == 0 {
		return x, false
	}
	return l.vals[i&mask], true
}

// All iterates the present entries in ascending index order.
func (v Vec[T]) All() iter.Seq2[int, T] {
	return func(yield func(int, T) bool) {
		if v.root != nil {
			walk(v.root, v.shift, 0, yield)
		}
	}
}

func walk[T any](n *inner[T], shift uint, base int, yield func(int, T) bool) bool {
	for k := 0; k < width; k++ {
		at := base | k<<shift
		if shift > bits {
			if c := n.kids[k]; c != nil && !walk(c, shift-bits, at, yield) {
				return false
			}
			continue
		}
		l := n.leaves[k]
		if l == nil {
			continue
		}
		for j := 0; j < width; j++ {
			if l.set&(1<<j) != 0 && !yield(at|j, l.vals[j]) {
				return false
			}
		}
	}
	return true
}

// Editor derives a new Vec from a base one. Nodes the editor copied are
// its own and are updated in place; everything else stays shared with
// the base, which never changes.
type Editor[T any] struct {
	v     Vec[T]
	owner uint64
}

// editors hands out editor identities. A node records the identity of
// the editor that created it; an integer rather than a pointer keeps
// leaves of pointer-free entries out of the garbage collector's scan.
var editors atomic.Uint64

// Edit starts a new version of v.
func (v Vec[T]) Edit() *Editor[T] { return &Editor[T]{v: v, owner: editors.Add(1)} }

// Get reads the version being edited.
func (e *Editor[T]) Get(i int) (T, bool) { return e.v.Get(i) }

// Len returns the number of present entries in the version being
// edited.
func (e *Editor[T]) Len() int { return e.v.n }

// Vec returns the edited version. Later edits through e copy again, so
// the returned Vec stays immutable.
func (e *Editor[T]) Vec() Vec[T] {
	e.owner = editors.Add(1)
	return e.v
}

// Set stores x at index i, which must not be negative.
func (e *Editor[T]) Set(i int, x T) {
	if i < 0 {
		panic("pvec: negative index")
	}
	for !e.v.covers(i) {
		if e.v.root == nil {
			e.v.root, e.v.shift = &inner[T]{owner: e.owner}, bits
			continue
		}
		r := &inner[T]{owner: e.owner}
		r.kids[0] = e.v.root
		e.v.root, e.v.shift = r, e.v.shift+bits
	}
	l := e.leafFor(i)
	if bit := uint32(1) << (i & mask); l.set&bit == 0 {
		l.set |= bit
		e.v.n++
	}
	l.vals[i&mask] = x
}

// Delete removes the entry at i, if present.
func (e *Editor[T]) Delete(i int) {
	if _, ok := e.v.Get(i); !ok {
		return
	}
	l := e.leafFor(i)
	l.set &^= 1 << (i & mask)
	var zero T
	l.vals[i&mask] = zero
	e.v.n--
}

// leafFor returns the editor-owned leaf holding index i, copying (or
// creating) the nodes on its path. i must be covered by the root.
func (e *Editor[T]) leafFor(i int) *leaf[T] {
	e.v.root = e.ownInner(e.v.root)
	n := e.v.root
	for s := e.v.shift; s > bits; s -= bits {
		slot := &n.kids[(i>>s)&mask]
		*slot = e.ownInner(*slot)
		n = *slot
	}
	slot := &n.leaves[(i>>bits)&mask]
	switch l := *slot; {
	case l == nil:
		*slot = &leaf[T]{owner: e.owner}
	case l.owner != e.owner:
		c := *l
		c.owner = e.owner
		*slot = &c
	}
	return *slot
}

func (e *Editor[T]) ownInner(n *inner[T]) *inner[T] {
	switch {
	case n == nil:
		return &inner[T]{owner: e.owner}
	case n.owner != e.owner:
		c := *n
		c.owner = e.owner
		return &c
	}
	return n
}
