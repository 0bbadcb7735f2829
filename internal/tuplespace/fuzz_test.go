package tuplespace

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"
)

// linearSpace is the reference a Space is checked against: one slice of
// tuples in the order they were stored, scanned front to back, and one of
// waiters in the order they registered.
type linearSpace struct {
	tuples  []Tuple
	waiters []linearWaiter
}

type linearWaiter struct {
	id   int
	tpl  Template
	take bool
}

// out stores t unless a taker is waiting for it, and returns the ids of
// the waiters it wakes: every matching reader, and the first matching taker.
func (l *linearSpace) out(t Tuple) (woken []int) {
	taken := false
	l.waiters = slices.DeleteFunc(l.waiters, func(w linearWaiter) bool {
		if (taken && w.take) || !w.tpl.Matches(t) {
			return false
		}
		woken = append(woken, w.id)
		taken = taken || w.take
		return true
	})
	if !taken {
		l.tuples = append(l.tuples, t)
	}
	return woken
}

// probe returns the first match, taking it when take is set.
func (l *linearSpace) probe(tpl Template, take bool) (Tuple, bool) {
	i := slices.IndexFunc(l.tuples, tpl.Matches)
	if i < 0 {
		return nil, false
	}
	t := l.tuples[i]
	if take {
		l.tuples = slices.Delete(l.tuples, i, i+1)
	}
	return t, true
}

// await is probe that registers waiter id when nothing matches.
func (l *linearSpace) await(tpl Template, take bool, id int) (Tuple, bool) {
	t, ok := l.probe(tpl, take)
	if !ok {
		l.waiters = append(l.waiters, linearWaiter{id, tpl, take})
	}
	return t, ok
}

func (l *linearSpace) cancel(id int) bool {
	i := slices.IndexFunc(l.waiters, func(w linearWaiter) bool { return w.id == id })
	if i >= 0 {
		l.waiters = slices.Delete(l.waiters, i, i+1)
	}
	return i >= 0
}

// heads is what a fuzzed tuple's first field is drawn from: each keyed
// scalar type, 3 and int64(3) (which differ), the NaN and signed zeros that
// float keys must not lose, and byte slices, which share a bucket.
var heads = []any{"a", "b", 3, int64(3), 4, 2.5, math.NaN(), 0.0, math.Copysign(0, -1), true, false, []byte("x"), []byte("y")}

// rest is what a fuzzed tuple's other fields are drawn from.
var rest = []any{0, 1, "x", []byte("x"), 1.5}

// fieldSame reports whether two fields are the same value: NaN is NaN, and
// the sign of a zero counts.
func fieldSame(a, b any) bool {
	switch x := a.(type) {
	case float64:
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	case []byte:
		y, ok := b.([]byte)
		return ok && bytes.Equal(x, y)
	}
	return a == b
}

func tupleSame(a, b Tuple) bool {
	return slices.EqualFunc(a, b, fieldSame)
}

// FuzzSpaceMatchesLinear runs random sequences of Out, InP, RdP, Await,
// Cancel, Count and Snapshot against a Space and against linearSpace: every
// op returns the same tuple (the oldest match), every Out wakes the same
// waiters with the same tuple, Snapshot lists the same tuples in the same
// order, and the space holds a bucket for each key its stored tuples have —
// none for a first field no stored tuple has any more.
//
//	go test -run '^$' -fuzz FuzzSpaceMatchesLinear ./internal/tuplespace/
func FuzzSpaceMatchesLinear(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 4, 2, 0, 1, 0, 1, 0, 2})
	f.Add([]byte{0, 6, 2, 1, 0, 1, 1, 0, 2, 3, 1, 0, 0, 3, 1, 4, 0, 3, 1, 0, 0, 2, 6, 5, 0, 6})
	f.Add([]byte{0, 2, 3, 0, 1, 0, 7, 2, 0, 1, 3, 11, 1, 0, 1, 12, 2, 1, 2, 2, 7, 0, 1, 5, 9, 1, 1, 6})
	f.Fuzz(func(t *testing.T, ops []byte) {
		next := func(n int) int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b) % n
		}
		tuple := func() Tuple {
			tu := Tuple{heads[next(len(heads))]}
			for n := next(3); n > 0; n-- {
				tu = append(tu, rest[next(len(rest))])
			}
			return tu
		}
		pattern := func(pool []any) any {
			switch next(4) {
			case 0:
				return Wildcard
			case 1:
				return TypeOf(pool[next(len(pool))])
			}
			return pool[next(len(pool))]
		}
		template := func() Template {
			tpl := Template{pattern(heads)}
			for n := next(3); n > 0; n-- {
				tpl = append(tpl, pattern(rest))
			}
			return tpl
		}

		s, ref := New(), &linearSpace{}
		var woke []string // what the space's wakes reported, in order
		waiters := map[int]*Waiter{}
		for step := 0; len(ops) > 0; step++ {
			switch op := next(7); op {
			case 0: // Out
				tu := tuple()
				want := ref.out(tu)
				woke = woke[:0]
				if err := s.Out(tu); err != nil {
					t.Fatalf("step %d: Out%v: %v", step, tu, err)
				}
				var wantWoke []string
				for _, id := range want {
					wantWoke = append(wantWoke, fmt.Sprint(id, tu))
				}
				if !slices.Equal(woke, wantWoke) {
					t.Fatalf("step %d: Out%v woke %v, want %v", step, tu, woke, wantWoke)
				}
			case 1, 2: // InP, RdP
				tpl := template()
				var got Tuple
				var err error
				if op == 1 {
					got, err = s.InP(tpl)
				} else {
					got, err = s.RdP(tpl)
				}
				want, ok := ref.probe(tpl, op == 1)
				if ok != (err == nil) || (ok && !tupleSame(got, want)) {
					t.Fatalf("step %d: op %d %v = %v, %v; want %v, %v", step, op, tpl, got, err, want, ok)
				}
			case 3: // Await
				tpl, take := template(), next(2) == 1
				id := step
				got, w, err := s.Await(tpl, take, func(tu Tuple, err error) { woke = append(woke, fmt.Sprint(id, tu)) })
				want, ok := ref.await(tpl, take, id)
				if err != nil || ok != (w == nil) || (ok && !tupleSame(got, want)) {
					t.Fatalf("step %d: Await %v take=%v = %v, %v, %v; want %v, %v", step, tpl, take, got, w, err, want, ok)
				}
				if w != nil {
					waiters[id] = w
				}
			case 4: // Cancel: a waiter still registered, or one already woken
				ids := make([]int, 0, len(waiters))
				for id := range waiters {
					ids = append(ids, id)
				}
				if len(ids) == 0 {
					continue
				}
				slices.Sort(ids)
				id := ids[next(len(ids))]
				if got, want := s.Cancel(waiters[id]), ref.cancel(id); got != want {
					t.Fatalf("step %d: Cancel(%d) = %v, want %v", step, id, got, want)
				}
				delete(waiters, id)
			case 5: // Count
				tpl := template()
				want := 0
				for _, tu := range ref.tuples {
					if tpl.Matches(tu) {
						want++
					}
				}
				if got := s.Count(tpl); got != want {
					t.Fatalf("step %d: Count%v = %d, want %d", step, tpl, got, want)
				}
			case 6: // Snapshot
				snap := s.Snapshot()
				if !slices.EqualFunc(snap, ref.tuples, tupleSame) {
					t.Fatalf("step %d: Snapshot = %v, want %v", step, snap, ref.tuples)
				}
			}
			if s.Len() != len(ref.tuples) {
				t.Fatalf("step %d: Len = %d, want %d", step, s.Len(), len(ref.tuples))
			}
			keys := map[bucketKey]bool{}
			for _, tu := range ref.tuples {
				keys[keyOf(len(tu), tu[0])] = true
			}
			if got := s.bucketKeys(); len(got) != len(keys) {
				t.Fatalf("step %d: %d buckets %v for stored keys %v", step, len(got), got, keys)
			}
		}
	})
}
