package regex

import "sort"

// PosInfo is the Glushkov position analysis of an expression: every leaf
// occurrence (OpSym or OpClass) becomes a numbered position, and First,
// Last, Follow describe the position automaton. State 0 of that automaton is
// the synthetic start state; positions are numbered from 1.
//
// PosInfo is the bridge between content models and the automata package
// (which builds NFAs from it) and the basis of the one-unambiguity check
// that XML Schema — and hence XML Schema_int — imposes.
type PosInfo struct {
	// Classes[i] is the symbol class matched by position i+1. A plain
	// symbol leaf becomes a singleton class.
	Classes []Class
	// First lists the positions that can begin a word, ascending.
	First []int
	// Last lists the positions that can end a word, ascending.
	Last []int
	// Follow[i] lists the positions that can follow position i+1, ascending.
	Follow [][]int
	// Nullable reports whether ε ∈ L(r).
	Nullable bool
}

// Positions computes the Glushkov analysis of r. The result is memoized on
// the node — Regex values are immutable after construction and every caller
// treats PosInfo as read-only, so the analysis of a long-lived content model
// (validation and UPA checks revisit the same models on every message) is
// paid once; racing writers publish structurally identical values.
func Positions(r *Regex) *PosInfo {
	if p := r.pos.Load(); p != nil {
		return p
	}
	info := &PosInfo{}
	first, last, nullable := info.walk(r)
	info.First = first
	info.Last = last
	info.Nullable = nullable
	r.pos.Store(info)
	return info
}

// walk returns (first, last, nullable) for the subexpression, appending
// positions and follow sets to info as it goes.
func (info *PosInfo) walk(r *Regex) (first, last []int, nullable bool) {
	switch r.Op {
	case OpNever:
		return nil, nil, false
	case OpEmpty:
		return nil, nil, true
	case OpSym:
		p := info.newPos(NewClass(false, r.Sym))
		return []int{p}, []int{p}, false
	case OpClass:
		p := info.newPos(r.Cls)
		return []int{p}, []int{p}, false
	case OpAlt:
		nullable = false
		for _, s := range r.Subs {
			f, l, n := info.walk(s)
			first = mergeSorted(first, f)
			last = mergeSorted(last, l)
			nullable = nullable || n
		}
		return first, last, nullable
	case OpConcat:
		first, last, nullable = info.walk(r.Subs[0])
		for _, s := range r.Subs[1:] {
			f, l, n := info.walk(s)
			// Every last position so far can be followed by f.
			for _, p := range last {
				info.Follow[p-1] = mergeSorted(info.Follow[p-1], f)
			}
			if nullable {
				first = mergeSorted(first, f)
			}
			if n {
				last = mergeSorted(last, l)
			} else {
				last = l
			}
			nullable = nullable && n
		}
		return first, last, nullable
	case OpStar:
		f, l, _ := info.walk(r.Subs[0])
		for _, p := range l {
			info.Follow[p-1] = mergeSorted(info.Follow[p-1], f)
		}
		return f, l, true
	}
	panic("regex: bad op")
}

func (info *PosInfo) newPos(c Class) int {
	info.Classes = append(info.Classes, c)
	info.Follow = append(info.Follow, nil)
	return len(info.Classes)
}

func mergeSorted(a, b []int) []int {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return append([]int(nil), b...)
	}
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		default:
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// Deterministic reports whether r is one-unambiguous (XML Schema's "Unique
// Particle Attribution" rule): in the Glushkov automaton, no state has two
// outgoing positions whose symbol classes overlap. Deterministic content
// models keep the complement construction of the safe-rewriting algorithm
// polynomial (Section 4 of the paper).
//
// Each state's positions are decided through a symbol index rather than
// pair by pair, so a state of k positions costs the size of their classes,
// not k² overlap tests: a starred choice of n names is checked in O(n²),
// not O(n³).
func Deterministic(r *Regex) bool {
	info := Positions(r)
	x := newSymIndex(info.Classes)
	if !x.disjoint(info.First) {
		return false
	}
	for _, fol := range info.Follow {
		if !x.disjoint(fol) {
			return false
		}
	}
	return true
}

// symIndex decides whether the classes of a set of positions are pairwise
// disjoint, in time linear in their sizes. Every symbol the classes name
// gets a dense index; a set is disjoint iff no symbol is claimed by two
// positive classes, it holds at most one negated class (two negated classes
// always overlap, the symbol universe being unbounded), and that class
// excludes every symbol the positive classes claim. Classes are normalized
// (NewClass), so a class names each symbol once.
type symIndex struct {
	classes []Class
	// ids[p-1] lists the dense indexes of position p's symbols.
	ids [][]int32
	// claimed and excluded stamp, per dense index, the generation of the
	// set that a positive class claimed it in, or whose negated class
	// excludes it.
	claimed, excluded []uint32
	gen               uint32
}

func newSymIndex(classes []Class) *symIndex {
	n := 0
	for _, c := range classes {
		n += len(c.Syms)
	}
	all := make([]Symbol, 0, n)
	for _, c := range classes {
		all = append(all, c.Syms...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	all = dedupSymbols(all)
	flat := make([]int32, 0, n)
	x := &symIndex{classes: classes, ids: make([][]int32, len(classes)),
		claimed: make([]uint32, len(all)), excluded: make([]uint32, len(all))}
	for i, c := range classes {
		start := len(flat)
		for _, s := range c.Syms {
			flat = append(flat, int32(sort.Search(len(all), func(k int) bool { return all[k] >= s })))
		}
		x.ids[i] = flat[start:len(flat):len(flat)]
	}
	return x
}

// disjoint reports whether the classes of the given positions are
// pairwise disjoint.
func (x *symIndex) disjoint(positions []int) bool {
	if len(positions) < 2 {
		return true
	}
	x.gen++
	neg := 0
	for _, p := range positions {
		if x.classes[p-1].Negated {
			if neg != 0 {
				return false
			}
			neg = p
		}
	}
	if neg != 0 {
		for _, id := range x.ids[neg-1] {
			x.excluded[id] = x.gen
		}
	}
	for _, p := range positions {
		if p == neg {
			continue
		}
		for _, id := range x.ids[p-1] {
			if x.claimed[id] == x.gen || neg != 0 && x.excluded[id] != x.gen {
				return false
			}
			x.claimed[id] = x.gen
		}
	}
	return true
}

// Ambiguities returns, for diagnostic messages, the pairs of overlapping
// competing classes that violate one-unambiguity (at most one pair per
// state, the first in position order). The slice is empty iff
// Deterministic(r).
func Ambiguities(r *Regex) []Class {
	info := Positions(r)
	x := newSymIndex(info.Classes)
	var out []Class
	collect := func(positions []int) {
		if x.disjoint(positions) {
			return
		}
		for i := 0; i < len(positions); i++ {
			for j := i + 1; j < len(positions); j++ {
				a, b := info.Classes[positions[i]-1], info.Classes[positions[j]-1]
				if a.Overlaps(b) {
					out = append(out, a, b)
					return
				}
			}
		}
	}
	collect(info.First)
	for _, fol := range info.Follow {
		collect(fol)
	}
	return out
}
