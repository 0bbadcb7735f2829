package dataplane

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// answer is what a resolve produced: through Await's return for a published
// key, through the waiter's wake for a parked one.
type answer struct {
	loc Loc
	err error
}

// await resolves key, returning the immediate answer or — when the resolve
// parked — the waiter plus the channel its wake will deliver on.
func await(b *Broker, key string) (answer, *Waiter, <-chan answer) {
	ch := make(chan answer, 1)
	l, w, err := b.Await(key, func(l Loc, err error) { ch <- answer{l, err} })
	return answer{l, err}, w, ch
}

func TestPutThenResolve(t *testing.T) {
	var stats Stats
	b := NewBroker(&stats)
	in := Loc{Key: "k", Task: "t1", Node: "n1", Digest: "d1", Size: 10}
	if err := b.Put(in); err != nil {
		t.Fatal(err)
	}
	got, w, _ := await(b, "k")
	if got.err != nil || w != nil {
		t.Fatalf("published key parked or failed: %v", got.err)
	}
	if l := got.loc; l.Node != "n1" || l.Digest != "d1" || l.Size != 10 || l.Task != "t1" {
		t.Errorf("resolved %+v", l)
	}
	s := stats.Snapshot()
	if s.Puts != 1 || s.Resolves != 1 || s.Parks != 0 {
		t.Errorf("stats %+v", s)
	}
}

// TestResolveParksUntilPut: a resolve issued before the advert registers a
// waiter, and the publishing Put wakes it with the location.
func TestResolveParksUntilPut(t *testing.T) {
	var stats Stats
	b := NewBroker(&stats)
	_, w, woke := await(b, "late")
	if w == nil {
		t.Fatal("unpublished key did not park")
	}
	select {
	case a := <-woke:
		t.Fatalf("woke before the key published: %+v", a)
	default:
	}
	if err := b.Put(Loc{Key: "late", Node: "n2", Digest: "d"}); err != nil {
		t.Fatal(err)
	}
	select {
	case a := <-woke:
		if a.err != nil || a.loc.Node != "n2" {
			t.Errorf("woke with %+v", a)
		}
	default:
		t.Fatal("Put returned without waking the parked resolve")
	}
	if b.Cancel(w) {
		t.Error("Cancel withdrew a waiter Put already answered")
	}
	if s := stats.Snapshot(); s.Parks != 1 || s.Resolves != 1 {
		t.Errorf("stats %+v, want 1 park and 1 resolve", s)
	}
}

// TestResolveDeadline: a park whose window lapsed withdraws its waiter with
// Cancel, after which a publish neither wakes it nor counts a resolve.
func TestResolveDeadline(t *testing.T) {
	var stats Stats
	b := NewBroker(&stats)
	_, w, woke := await(b, "never")
	if !b.Cancel(w) {
		t.Fatal("Cancel of a registered waiter reported false")
	}
	if b.Cancel(w) {
		t.Error("second Cancel reported true")
	}
	if err := b.Put(Loc{Key: "never", Node: "n1", Digest: "d"}); err != nil {
		t.Fatal(err)
	}
	select {
	case a := <-woke:
		t.Errorf("cancelled waiter woke: %+v", a)
	default:
	}
	if s := stats.Snapshot(); s.Resolves != 0 {
		t.Errorf("resolves = %d after a cancelled park, want 0", s.Resolves)
	}
}

func TestCloseWakesWaiters(t *testing.T) {
	b := NewBroker(nil)
	_, _, woke := await(b, "k")
	b.Close()
	select {
	case a := <-woke:
		if !errors.Is(a.err, ErrClosed) {
			t.Errorf("err = %v, want ErrClosed", a.err)
		}
	default:
		t.Fatal("Close returned without waking the waiter")
	}
	if a, _, _ := await(b, "k"); !errors.Is(a.err, ErrClosed) {
		t.Errorf("resolve after close: %v", a.err)
	}
	if err := b.Put(Loc{Key: "k"}); !errors.Is(err, ErrClosed) {
		t.Errorf("put after close: %v", err)
	}
}

// TestInvalidateStaleHint: a consumer-reported stale advert is dropped only
// when node (and digest, if given) still match; a dropped non-inline advert
// reports its location as lost so the producer can be re-run.
func TestInvalidateStaleHint(t *testing.T) {
	b := NewBroker(nil)
	_ = b.Put(Loc{Key: "k", Task: "prod", Node: "n1", Digest: "d1"})
	if _, lost := b.Invalidate("k", "n2", ""); lost {
		t.Error("invalidated with wrong node")
	}
	if _, lost := b.Invalidate("k", "n1", "other"); lost {
		t.Error("invalidated with wrong digest")
	}
	l, lost := b.Invalidate("k", "n1", "d1")
	if !lost || l.Task != "prod" || l.Node != "n1" {
		t.Errorf("matching hint: lost=%v loc=%+v", lost, l)
	}
	if _, ok := b.Lookup("k"); ok {
		t.Error("advert survived invalidation")
	}
}

// TestInvalidateKeepsInline: an advert with a JM-held inline copy degrades
// to JM-served (node cleared) instead of disappearing, and is not reported
// lost — no producer re-run is needed.
func TestInvalidateKeepsInline(t *testing.T) {
	b := NewBroker(nil)
	_ = b.Put(Loc{Key: "k", Node: "n1", Digest: "d", Size: 3, Inline: []byte{1, 2, 3}})
	if _, lost := b.Invalidate("k", "n1", "d"); lost {
		t.Fatal("inline-backed advert reported lost")
	}
	l, ok := b.Lookup("k")
	if !ok || l.Node != "" || len(l.Inline) != 3 {
		t.Errorf("after invalidate: %+v ok=%v", l, ok)
	}
}

// TestInvalidateNode: dead-node sweep returns only the locations whose
// payload is actually lost (no inline copy) — the producers to re-run.
func TestInvalidateNode(t *testing.T) {
	b := NewBroker(nil)
	_ = b.Put(Loc{Key: "a", Task: "ta", Node: "dead", Digest: "d1"})
	_ = b.Put(Loc{Key: "b", Task: "tb", Node: "dead", Digest: "d2", Inline: []byte{1}})
	_ = b.Put(Loc{Key: "c", Task: "tc", Node: "alive", Digest: "d3"})
	lost := b.InvalidateNode("dead")
	if len(lost) != 1 || lost[0].Key != "a" || lost[0].Task != "ta" {
		t.Fatalf("lost = %+v", lost)
	}
	if _, ok := b.Lookup("a"); ok {
		t.Error("lost advert a still present")
	}
	if l, ok := b.Lookup("b"); !ok || l.Node != "" {
		t.Error("inline advert b should survive JM-served")
	}
	if l, ok := b.Lookup("c"); !ok || l.Node != "alive" {
		t.Error("advert c on a live node was touched")
	}
}

// TestRepublishOverwrites: a recovered producer's fresh advert replaces the
// old one and wakes waiters parked since the invalidation.
func TestRepublishOverwrites(t *testing.T) {
	b := NewBroker(nil)
	_ = b.Put(Loc{Key: "k", Node: "n1", Digest: "old"})
	_ = b.Put(Loc{Key: "k", Node: "n2", Digest: "new"})
	if a, _, _ := await(b, "k"); a.err != nil || a.loc.Node != "n2" || a.loc.Digest != "new" {
		t.Errorf("resolve after republish: %+v", a)
	}
}

// TestEntriesRestore: the checkpoint image round-trips into a fresh broker
// and answers parked resolves there.
func TestEntriesRestore(t *testing.T) {
	b := NewBroker(nil)
	_ = b.Put(Loc{Key: "b", Node: "n2", Digest: "d2"})
	_ = b.Put(Loc{Key: "a", Node: "n1", Digest: "d1", Inline: []byte{9}})
	entries := b.Entries()
	if len(entries) != 2 || entries[0].Key != "a" || entries[1].Key != "b" {
		t.Fatalf("entries = %+v", entries)
	}
	adopted := NewBroker(nil)
	_, w, woke := await(adopted, "b")
	if w == nil {
		t.Fatal("resolve on an empty adopted broker did not park")
	}
	adopted.Restore(entries)
	select {
	case a := <-woke:
		if a.err != nil || a.loc.Digest != "d2" {
			t.Errorf("parked resolve woke with %+v", a)
		}
	default:
		t.Fatal("Restore returned without waking the parked resolve")
	}
	if a, _, _ := await(adopted, "a"); a.err != nil || a.loc.Digest != "d1" || len(a.loc.Inline) != 1 {
		t.Errorf("restored resolve: %+v", a)
	}
}

// TestConcurrentPutResolve hammers the broker from both sides; run with
// -race this doubles as the data-race check for the park/wake machinery.
func TestConcurrentPutResolve(t *testing.T) {
	var stats Stats
	b := NewBroker(&stats)
	const keys = 64
	var wg sync.WaitGroup
	for i := 0; i < keys; i++ {
		key := string(rune('a'+i%26)) + string(rune('0'+i/26))
		wg.Add(2)
		go func() {
			defer wg.Done()
			a, w, woke := await(b, key)
			if w != nil {
				select {
				case a = <-woke:
				case <-time.After(10 * time.Second):
					t.Errorf("resolve %q never woke", key)
					return
				}
			}
			if a.err != nil || a.loc.Digest != key {
				t.Errorf("resolve %q: %+v", key, a)
			}
		}()
		go func() {
			defer wg.Done()
			if err := b.Put(Loc{Key: key, Node: "n", Digest: key}); err != nil {
				t.Errorf("put %q: %v", key, err)
			}
		}()
	}
	wg.Wait()
	if s := stats.Snapshot(); s.Puts != keys || s.Resolves != keys {
		t.Errorf("stats %+v, want %d puts/resolves", s, keys)
	}
}

// TestCancelLeavesNoSpareWaiter: a withdrawn resolve is not reachable through
// the spare capacity of its key's waiter list — its wake closure holds the
// request frame it would have answered.
func TestCancelLeavesNoSpareWaiter(t *testing.T) {
	b := NewBroker(nil)
	var ws []*Waiter
	for i := 0; i < 3; i++ {
		_, w, err := b.Await("k", func(Loc, error) {})
		if w == nil || err != nil {
			t.Fatalf("await %d: waiter %v, err %v", i, w, err)
		}
		ws = append(ws, w)
	}
	for i, w := range ws[:2] {
		if !b.Cancel(w) {
			t.Fatalf("cancel %d: not registered", i)
		}
		b.mu.Lock()
		left := b.waiters["k"]
		for j, x := range left[len(left):cap(left)] {
			if x != nil {
				t.Errorf("after cancel %d: spare slot %d still holds a waiter", i, j)
			}
		}
		b.mu.Unlock()
	}
}
