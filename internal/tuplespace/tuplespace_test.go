package tuplespace

import (
	"context"
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestOutInP(t *testing.T) {
	s := New()
	if err := s.Out(Tuple{"row", 3, "data"}); err != nil {
		t.Fatal(err)
	}
	got, err := s.InP(Template{"row", 3, Wildcard})
	if err != nil {
		t.Fatal(err)
	}
	if got[2] != "data" {
		t.Errorf("got %v", got)
	}
	if s.Len() != 0 {
		t.Errorf("Len = %d after destructive In", s.Len())
	}
}

func TestRdPNonDestructive(t *testing.T) {
	s := New()
	if err := s.Out(Tuple{"k", 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RdP(Template{"k", Wildcard}); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Errorf("Rd removed the tuple")
	}
}

func TestProbesNoMatch(t *testing.T) {
	s := New()
	if _, err := s.InP(Template{"absent"}); !errors.Is(err, ErrNoMatch) {
		t.Errorf("InP = %v", err)
	}
	if _, err := s.RdP(Template{"absent"}); !errors.Is(err, ErrNoMatch) {
		t.Errorf("RdP = %v", err)
	}
}

func TestOutEmptyTuple(t *testing.T) {
	s := New()
	if err := s.Out(Tuple{}); err == nil {
		t.Error("empty tuple accepted")
	}
}

func TestTemplateMatching(t *testing.T) {
	cases := []struct {
		tpl   Template
		tuple Tuple
		want  bool
	}{
		{Template{"a", 1}, Tuple{"a", 1}, true},
		{Template{"a", 1}, Tuple{"a", 2}, false},
		{Template{"a", Wildcard}, Tuple{"a", 99}, true},
		{Template{Wildcard, Wildcard}, Tuple{"x", "y"}, true},
		{Template{"a"}, Tuple{"a", 1}, false}, // arity mismatch
		{Template{TypeOf(0)}, Tuple{5}, true},
		{Template{TypeOf(0)}, Tuple{"5"}, false},
		{Template{TypeOf("")}, Tuple{"s"}, true},
		{Template{[]byte{1, 2}}, Tuple{[]byte{1, 2}}, true},
		{Template{[]byte{1, 2}}, Tuple{[]byte{1, 3}}, false},
		{Template{[]byte{1, 2}}, Tuple{"not bytes"}, false},
		{Template{1.5}, Tuple{1.5}, true},
		{Template{1}, Tuple{int64(1)}, false}, // type-strict equality
	}
	for i, c := range cases {
		if got := c.tpl.Matches(c.tuple); got != c.want {
			t.Errorf("case %d: Matches(%v, %v) = %v, want %v", i, c.tpl, c.tuple, got, c.want)
		}
	}
}

func TestInBlocksUntilOut(t *testing.T) {
	s := New()
	got := make(chan Tuple, 1)
	go func() {
		tu, err := s.In(context.Background(), Template{"job", Wildcard})
		if err != nil {
			t.Errorf("In: %v", err)
			return
		}
		got <- tu
	}()
	time.Sleep(10 * time.Millisecond)
	select {
	case <-got:
		t.Fatal("In returned before Out")
	default:
	}
	if err := s.Out(Tuple{"job", 42}); err != nil {
		t.Fatal(err)
	}
	select {
	case tu := <-got:
		if tu[1] != 42 {
			t.Errorf("got %v", tu)
		}
	case <-time.After(time.Second):
		t.Fatal("In did not unblock")
	}
}

func TestInContextCancel(t *testing.T) {
	s := New()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := s.In(ctx, Template{"never"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("In = %v", err)
	}
	// The cancelled waiter must be removed so it does not steal later tuples.
	if err := s.Out(Tuple{"never"}); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Errorf("tuple stolen by cancelled waiter; Len = %d", s.Len())
	}
}

func TestOneOutWakesOneTakerManyReaders(t *testing.T) {
	s := New()
	const readers = 3
	var wg sync.WaitGroup
	readerGot := make(chan Tuple, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tu, err := s.Rd(context.Background(), Template{"x"})
			if err != nil {
				t.Errorf("Rd: %v", err)
				return
			}
			readerGot <- tu
		}()
	}
	takerGot := make(chan Tuple, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		tu, err := s.In(context.Background(), Template{"x"})
		if err != nil {
			t.Errorf("In: %v", err)
			return
		}
		takerGot <- tu
	}()
	time.Sleep(20 * time.Millisecond)
	if err := s.Out(Tuple{"x"}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if len(readerGot) != readers {
		t.Errorf("%d readers woke, want %d", len(readerGot), readers)
	}
	if len(takerGot) != 1 {
		t.Errorf("taker did not get the tuple")
	}
	if s.Len() != 0 {
		t.Errorf("tuple left behind: Len = %d", s.Len())
	}
}

func TestSecondTakerKeepsWaiting(t *testing.T) {
	s := New()
	results := make(chan Tuple, 2)
	for i := 0; i < 2; i++ {
		go func() {
			tu, err := s.In(context.Background(), Template{"once", Wildcard})
			if err != nil {
				return
			}
			results <- tu
		}()
	}
	time.Sleep(10 * time.Millisecond)
	if err := s.Out(Tuple{"once", 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-results:
	case <-time.After(time.Second):
		t.Fatal("no taker woke")
	}
	select {
	case tu := <-results:
		t.Fatalf("both takers woke for one tuple: %v", tu)
	case <-time.After(50 * time.Millisecond):
	}
	// Second Out satisfies the remaining taker.
	if err := s.Out(Tuple{"once", 2}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-results:
	case <-time.After(time.Second):
		t.Fatal("second taker never woke")
	}
}

func TestCount(t *testing.T) {
	s := New()
	for i := 0; i < 5; i++ {
		if err := s.Out(Tuple{"n", i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Out(Tuple{"other"}); err != nil {
		t.Fatal(err)
	}
	if got := s.Count(Template{"n", Wildcard}); got != 5 {
		t.Errorf("Count = %d, want 5", got)
	}
	if got := s.Count(Template{"n", 3}); got != 1 {
		t.Errorf("Count exact = %d, want 1", got)
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	s := New()
	if err := s.Out(Tuple{"a", 1}); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	snap[0][0] = "mutated"
	got, err := s.RdP(Template{Wildcard, Wildcard})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != "a" {
		t.Error("Snapshot aliases internal storage")
	}
}

func TestOutReturnsCopies(t *testing.T) {
	s := New()
	tu := Tuple{"k", 1}
	if err := s.Out(tu); err != nil {
		t.Fatal(err)
	}
	tu[1] = 999 // mutate caller's slice after Out
	got, err := s.InP(Template{"k", Wildcard})
	if err != nil {
		t.Fatal(err)
	}
	if got[1] != 1 {
		t.Errorf("stored tuple aliased caller slice: %v", got)
	}
}

func TestFIFOWithinMatches(t *testing.T) {
	s := New()
	for i := 0; i < 3; i++ {
		if err := s.Out(Tuple{"seq", i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		got, err := s.InP(Template{"seq", Wildcard})
		if err != nil {
			t.Fatal(err)
		}
		if got[1] != i {
			t.Errorf("InP order: got %v at step %d", got, i)
		}
	}
}

func TestClose(t *testing.T) {
	s := New()
	blocked := make(chan error, 1)
	go func() {
		_, err := s.In(context.Background(), Template{"x"})
		blocked <- err
	}()
	time.Sleep(10 * time.Millisecond)
	s.Close()
	select {
	case err := <-blocked:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("blocked In after Close = %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Close did not unblock In")
	}
	if err := s.Out(Tuple{"x"}); !errors.Is(err, ErrClosed) {
		t.Errorf("Out after Close = %v", err)
	}
	if _, err := s.InP(Template{"x"}); !errors.Is(err, ErrClosed) {
		t.Errorf("InP after Close = %v", err)
	}
	if _, err := s.Rd(context.Background(), Template{"x"}); !errors.Is(err, ErrClosed) {
		t.Errorf("Rd after Close = %v", err)
	}
	s.Close() // idempotent
}

func TestConcurrentProducersConsumers(t *testing.T) {
	s := New()
	const producers, perProducer = 4, 50
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if err := s.Out(Tuple{"work", p, i}); err != nil {
					t.Errorf("Out: %v", err)
				}
			}
		}(p)
	}
	consumed := make(chan Tuple, producers*perProducer)
	var cg sync.WaitGroup
	for c := 0; c < 4; c++ {
		cg.Add(1)
		go func() {
			defer cg.Done()
			for {
				ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
				tu, err := s.In(ctx, Template{"work", Wildcard, Wildcard})
				cancel()
				if err != nil {
					return
				}
				consumed <- tu
			}
		}()
	}
	wg.Wait()
	cg.Wait()
	if len(consumed) != producers*perProducer {
		t.Errorf("consumed %d tuples, want %d", len(consumed), producers*perProducer)
	}
	if s.Len() != 0 {
		t.Errorf("%d tuples left", s.Len())
	}
}

func TestMatchReflexiveProperty(t *testing.T) {
	// Any tuple of supported scalars matches a template equal to itself and
	// a template of all wildcards.
	f := func(a int, b string, c bool) bool {
		tu := Tuple{a, b, c}
		if !(Template{a, b, c}).Matches(tu) {
			return false
		}
		return (Template{Wildcard, Wildcard, Wildcard}).Matches(tu)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTupleString(t *testing.T) {
	s := Tuple{"a", 1}.String()
	if s != "(a, 1)" {
		t.Errorf("String = %q", s)
	}
}

// TestRemovalLeavesNoSpareReference: a tuple taken by InP or by Await, and a
// waiter withdrawn by Cancel, are not reachable through the spare capacity
// of the slice they left — the taken tuple's fields and the waiter's wake
// closure (which, at a JobManager, holds the request frame) are garbage at
// once, not when a later append overwrites the slot.
func TestRemovalLeavesNoSpareReference(t *testing.T) {
	s := New()
	clean := func(what string) {
		t.Helper()
		tuples, waiters := s.spare()
		for i, x := range tuples {
			if x != nil {
				t.Errorf("after %s: spare tuple slot %d still holds %v", what, i, x)
			}
		}
		for i, w := range waiters {
			if w != nil {
				t.Errorf("after %s: spare waiter slot %d still holds %v", what, i, w.tpl)
			}
		}
	}
	for i := 0; i < 4; i++ {
		if err := s.Out(Tuple{"k", i, []byte("payload")}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.InP(Template{"k", 1, Wildcard}); err != nil {
		t.Fatal(err)
	}
	clean("InP")
	if _, w, err := s.Await(Template{"k", 0, Wildcard}, true, nil); w != nil || err != nil {
		t.Fatalf("await take: waiter %v, err %v", w, err)
	}
	clean("Await (take)")

	var ws []*Waiter
	for i := 0; i < 3; i++ {
		_, w, err := s.Await(Template{"w", i}, true, func(Tuple, error) {})
		if w == nil || err != nil {
			t.Fatalf("await %d: waiter %v, err %v", i, w, err)
		}
		ws = append(ws, w)
	}
	for i, w := range ws {
		if !s.Cancel(w) {
			t.Fatalf("cancel %d: not registered", i)
		}
		clean("Cancel")
	}
}
