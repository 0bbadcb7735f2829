// Package tuplespace implements Linda-style tuple spaces, the second
// coordination mechanism the paper mentions: "the tasks coordinate among
// themselves using the CNAPI for intertask communication (CN also supports
// communication via tuple spaces...)".
//
// A Space stores ordered tuples of scalar fields. Producers Out tuples;
// consumers In (destructive) or Rd (non-destructive) tuples matching a
// template, blocking until one is available. InP/RdP are the non-blocking
// probes. Templates match field-by-field: a concrete value matches by
// equality, the Wildcard matches any value of any type, and a TypeOf
// placeholder matches any value of one concrete type.
//
// The first match is the oldest: every op that finds a stored tuple — InP,
// RdP, In, Rd, Await — returns the matching tuple stored earliest, and
// Snapshot lists the tuples in the order they were stored. A space keeps its
// tuples in FIFO buckets keyed by arity and first field, so a template whose
// first field is a concrete value reads one bucket; a Wildcard or TypeOf
// first field reads every bucket of its arity and takes the oldest match.
package tuplespace

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
)

// ErrClosed is returned once the space has been closed.
var ErrClosed = errors.New("tuplespace: closed")

// ErrNoMatch is returned by the non-blocking probes when no tuple matches.
var ErrNoMatch = errors.New("tuplespace: no matching tuple")

// Tuple is an ordered sequence of scalar fields (strings, numbers, bools,
// byte slices...).
type Tuple []any

// String renders the tuple for logs, e.g. ("row", 3, 1.5).
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, f := range t {
		parts[i] = fmt.Sprintf("%v", f)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// clone returns a shallow copy of the tuple so callers cannot mutate stored
// state.
func (t Tuple) clone() Tuple {
	return append(Tuple(nil), t...)
}

// wildcard is the sentinel type of Wildcard.
type wildcard struct{}

// Wildcard matches any field value of any type in a template.
var Wildcard = wildcard{}

// typeOf matches any value of a concrete dynamic type.
type typeOf struct{ rt reflect.Type }

// TypeOf returns a template placeholder matching any value with the same
// dynamic type as sample (e.g. TypeOf(0) matches any int).
func TypeOf(sample any) any { return typeOf{reflect.TypeOf(sample)} }

// Template is a tuple pattern: concrete values, Wildcard, or TypeOf
// placeholders.
type Template []any

// Matches reports whether tpl matches tuple t: same arity and each field
// accepted by the corresponding pattern element.
func (tpl Template) Matches(t Tuple) bool {
	if len(tpl) != len(t) {
		return false
	}
	for i, p := range tpl {
		switch pat := p.(type) {
		case wildcard:
			// matches anything
		case typeOf:
			if reflect.TypeOf(t[i]) != pat.rt {
				return false
			}
		default:
			if !fieldEqual(p, t[i]) {
				return false
			}
		}
	}
	return true
}

// fieldEqual compares two field values: the wire's comparable scalars with
// ==, byte slices by content, anything else a local space holds deeply.
func fieldEqual(a, b any) bool {
	switch a.(type) {
	case string, int, int64, float64, bool:
		return a == b
	}
	if ab, ok := a.([]byte); ok {
		bb, ok := b.([]byte)
		return ok && bytes.Equal(ab, bb)
	}
	return reflect.DeepEqual(a, b)
}

// Waiter is one registered blocking In/Rd: a template waiting for a tuple
// that has not been stored yet.
type Waiter struct {
	tpl  Template
	take bool // destructive (In) vs read (Rd)
	wake func(Tuple, error)
}

// Space is a concurrent tuple space.
type Space struct {
	mu      sync.Mutex
	buckets map[bucketKey]*bucket
	n       int    // stored tuples
	seq     uint64 // insertion number of the next stored tuple
	waiters []*Waiter
	closed  bool
}

// bucketKey names the bucket a tuple is stored in: its arity and its first
// field, when fieldEqual compares that field with == (a string, int, int64,
// bool or non-NaN float64). Every other first field — NaN, a byte slice, any
// other type — is keyed nil, so such tuples share one bucket per arity. The
// key holds the tuple's own interface value: building it boxes nothing.
type bucketKey struct {
	arity int
	head  any
}

// keyOf returns the key of the bucket that holds the tuples a first field of
// v can equal.
func keyOf(arity int, v any) bucketKey {
	switch x := v.(type) {
	case string, int, int64, bool:
		return bucketKey{arity, v}
	case float64:
		if x == x {
			return bucketKey{arity, v}
		}
	}
	return bucketKey{arity, nil}
}

// entry is a stored tuple and its insertion number.
type entry struct {
	seq uint64
	t   Tuple
}

// bucket is the stored tuples of one key, oldest first.
type bucket struct {
	key bucketKey
	q   []entry
}

// find returns the index of the bucket's oldest tuple matching tpl, or -1.
func (b *bucket) find(tpl Template) int {
	for i := range b.q {
		if tpl.Matches(b.q[i].t) {
			return i
		}
	}
	return -1
}

// New creates an empty space.
func New() *Space { return &Space{buckets: make(map[bucketKey]*bucket)} }

// Len returns the number of stored tuples.
func (s *Space) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Closed reports whether the space has been closed.
func (s *Space) Closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Out stores a copy of a tuple in the space, waking at most one blocked In
// and any number of blocked Rd calls whose templates match. Wake callbacks
// run on the calling goroutine after the space's lock is released.
func (s *Space) Out(t Tuple) error {
	return s.Keep(t.clone())
}

// Keep is Out for a tuple the caller hands over, such as one just decoded:
// the space stores t itself, and the caller must not touch it again.
func (s *Space) Keep(t Tuple) error {
	if len(t) == 0 {
		return fmt.Errorf("tuplespace: out: empty tuple")
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	// Readers all observe the tuple; the first matching taker consumes it.
	taken := false
	var woken []*Waiter
	remaining := s.waiters[:0]
	for _, w := range s.waiters {
		if (taken && w.take) || !w.tpl.Matches(t) {
			remaining = append(remaining, w)
			continue
		}
		woken = append(woken, w)
		if w.take {
			taken = true
		}
	}
	clear(s.waiters[len(remaining):]) // do not pin woken waiters in the spare capacity
	s.waiters = remaining
	if !taken {
		s.storeLocked(t)
	}
	s.mu.Unlock()
	for _, w := range woken {
		w.wake(t, nil)
	}
	return nil
}

// storeLocked appends t to its bucket, creating the bucket on first use.
func (s *Space) storeLocked(t Tuple) {
	k := keyOf(len(t), t[0])
	b := s.buckets[k]
	if b == nil {
		b = &bucket{key: k}
		s.buckets[k] = b
	}
	b.q = append(b.q, entry{s.seq, t})
	s.seq++
	s.n++
}

// candidates calls fn with each bucket that may hold a tuple matching tpl:
// the one its concrete first field names or, when that field is a Wildcard
// or TypeOf, every bucket of its arity — less, for a TypeOf, the keyed
// buckets of another type.
func (s *Space) candidates(tpl Template, fn func(*bucket)) {
	if len(tpl) == 0 {
		return
	}
	var rt reflect.Type
	switch p := tpl[0].(type) {
	case typeOf:
		rt = p.rt
	case wildcard:
	default:
		if b := s.buckets[keyOf(len(tpl), p)]; b != nil {
			fn(b)
		}
		return
	}
	for k, b := range s.buckets {
		if k.arity == len(tpl) && (rt == nil || k.head == nil || reflect.TypeOf(k.head) == rt) {
			fn(b)
		}
	}
}

// findLocked returns the bucket and index of the oldest stored tuple
// matching tpl, or a nil bucket.
func (s *Space) findLocked(tpl Template) (best *bucket, bi int) {
	s.candidates(tpl, func(b *bucket) {
		if i := b.find(tpl); i >= 0 && (best == nil || b.q[i].seq < best.q[bi].seq) {
			best, bi = b, i
		}
	})
	return best, bi
}

// removeLocked deletes tuple i of b, keeping the order of the rest, and
// returns it; taking from the front, as a bag of tasks does, reslices rather
// than moves. A bucket left empty leaves the space, so what the space holds
// follows the tuples stored, not every first field ever seen.
func (s *Space) removeLocked(b *bucket, i int) Tuple {
	t := b.q[i].t
	if i == 0 {
		b.q[0] = entry{}
		b.q = b.q[1:]
	} else {
		b.q = slices.Delete(b.q, i, i+1)
	}
	if len(b.q) == 0 {
		delete(s.buckets, b.key)
	}
	s.n--
	return t
}

// InP removes and returns the first matching tuple without blocking.
func (s *Space) InP(tpl Template) (Tuple, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	b, i := s.findLocked(tpl)
	if b == nil {
		return nil, ErrNoMatch
	}
	return s.removeLocked(b, i).clone(), nil
}

// RdP returns (without removing) the first matching tuple without blocking.
func (s *Space) RdP(tpl Template) (Tuple, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	b, i := s.findLocked(tpl)
	if b == nil {
		return nil, ErrNoMatch
	}
	return b.q[i].t.clone(), nil
}

// In removes and returns a tuple matching tpl, blocking until one is
// available or ctx is done.
func (s *Space) In(ctx context.Context, tpl Template) (Tuple, error) {
	return s.wait(ctx, tpl, true)
}

// Rd returns (without removing) a tuple matching tpl, blocking until one is
// available or ctx is done.
func (s *Space) Rd(ctx context.Context, tpl Template) (Tuple, error) {
	return s.wait(ctx, tpl, false)
}

// Await is the non-blocking half of In (take) and Rd: it returns the first
// stored tuple matching tpl, removing it when take is set; with no match it
// registers a Waiter and returns it instead. A registered waiter's wake
// runs exactly once — with the tuple a later Out supplies, or with
// ErrClosed when the space closes — unless Cancel withdraws it first. wake
// is called outside the space's lock, on the goroutine of the Out or Close
// that fired it, and must not block. The tuple returned or passed to wake
// is the space's own, shared with other readers: it must not be written to.
func (s *Space) Await(tpl Template, take bool, wake func(Tuple, error)) (Tuple, *Waiter, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, nil, ErrClosed
	}
	if b, i := s.findLocked(tpl); b != nil {
		if take {
			return s.removeLocked(b, i), nil, nil
		}
		return b.q[i].t, nil, nil
	}
	w := &Waiter{tpl: tpl, take: take, wake: wake}
	s.waiters = append(s.waiters, w)
	return nil, w, nil
}

// Cancel withdraws a registered waiter. It reports true when the waiter
// was still registered, in which case its wake will never run; false means
// an Out or Close already claimed it and the wake has run or is running.
func (s *Space) Cancel(w *Waiter) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, x := range s.waiters {
		if x == w {
			s.waiters = slices.Delete(s.waiters, i, i+1)
			return true
		}
	}
	return false
}

func (s *Space) wait(ctx context.Context, tpl Template, take bool) (Tuple, error) {
	type result struct {
		t   Tuple
		err error
	}
	ch := make(chan result, 1)
	t, w, err := s.Await(tpl, take, func(t Tuple, err error) { ch <- result{t.clone(), err} })
	if w == nil {
		return t.clone(), err
	}
	select {
	case r := <-ch:
		return r.t, r.err
	case <-ctx.Done():
		if s.Cancel(w) {
			return nil, fmt.Errorf("tuplespace: %s: %w", opName(take), ctx.Err())
		}
		// A racing Out satisfied the waiter as ctx fired; deliver the tuple
		// rather than lose it.
		r := <-ch
		return r.t, r.err
	}
}

func opName(take bool) string {
	if take {
		return "in"
	}
	return "rd"
}

// Count returns the number of stored tuples matching tpl.
func (s *Space) Count(tpl Template) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	s.candidates(tpl, func(b *bucket) {
		for i := range b.q {
			if tpl.Matches(b.q[i].t) {
				n++
			}
		}
	})
	return n
}

// Snapshot returns a copy of all stored tuples in the order they were
// stored: the space section of a job's checkpoint.
func (s *Space) Snapshot() []Tuple {
	s.mu.Lock()
	defer s.mu.Unlock()
	all := make([]entry, 0, s.n)
	for _, b := range s.buckets {
		all = append(all, b.q...)
	}
	slices.SortFunc(all, func(a, b entry) int { return cmp.Compare(a.seq, b.seq) })
	out := make([]Tuple, len(all))
	for i, e := range all {
		out[i] = e.t.clone()
	}
	return out
}

// Close shuts the space down, failing all blocked and future operations.
func (s *Space) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	woken := s.waiters
	s.waiters = nil
	s.buckets = nil
	s.n = 0
	s.mu.Unlock()
	for _, w := range woken {
		w.wake(nil, ErrClosed)
	}
}
