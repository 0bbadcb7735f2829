package msg

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestKindString(t *testing.T) {
	if got := KindTaskCompleted.String(); got != "TASK_COMPLETED" {
		t.Errorf("KindTaskCompleted.String() = %q, want TASK_COMPLETED", got)
	}
	if got := Kind(9999).String(); got != "Kind(9999)" {
		t.Errorf("unknown kind String() = %q", got)
	}
}

// TestEveryKindNamed: each kind below KindCount must carry a real name of
// its own — a kind added without a kindNames entry falls back to "Kind(n)",
// which breaks logs and the transport's per-kind counters display, and two
// kinds sharing a name would be summed in them — and the table names nothing
// past the kind space. The count itself is pinned: ROADMAP quotes it (43
// named kinds and the zero kind; five of them are labels inside TASK_EVENTS
// and never travel — TASK_STARTED, TASK_COMPLETED, TASK_FAILED, TASK_RETRIED
// and JOB_COMPLETED — so 38 travel, JOB_FAILED among them as a call's
// refusal), so changing the kind table means changing this number and that
// sentence together.
func TestEveryKindNamed(t *testing.T) {
	if KindCount != 41 {
		t.Errorf("KindCount = %d, want 41; update ROADMAP.md and docs/WIRE.md with the new count", KindCount)
	}
	if len(kindNames) != KindCount {
		t.Errorf("kindNames has %d entries for %d kinds", len(kindNames), KindCount)
	}
	seen := make(map[string]Kind)
	for k := Kind(0); k < Kind(KindCount); k++ {
		name := k.String()
		if len(name) > 4 && name[:5] == "Kind(" {
			t.Errorf("kind %d has no name", k)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("kinds %d and %d are both named %s", prev, k, name)
		}
		seen[name] = k
	}
}

func TestDataKinds(t *testing.T) {
	for k, want := range map[Kind]string{
		KindDataPut:     "DATA_PUT",
		KindDataResolve: "DATA_RESOLVE",
		KindDataLoc:     "DATA_LOC",
		KindDataFetch:   "DATA_FETCH",
	} {
		if got := k.String(); got != want {
			t.Errorf("%v.String() = %q, want %q", k, got, want)
		}
	}
}

func TestAddressString(t *testing.T) {
	cases := []struct {
		addr Address
		want string
	}{
		{Address{Node: "n1"}, "n1"},
		{Address{Node: "n1", Job: "j1"}, "n1/j1"},
		{Address{Node: "n1", Job: "j1", Task: "t1"}, "n1/j1/t1"},
		{Address{Node: "n1", Task: "t1"}, "n1//t1"},
	}
	for _, c := range cases {
		if got := c.addr.String(); got != c.want {
			t.Errorf("%+v.String() = %q, want %q", c.addr, got, c.want)
		}
	}
}

func TestNewIDMonotonic(t *testing.T) {
	a, b := NewID(), NewID()
	if b <= a {
		t.Errorf("ids not increasing: %d then %d", a, b)
	}
}

func TestNewIDConcurrentUnique(t *testing.T) {
	const n = 64
	ids := make([]uint64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i] = NewID()
		}(i)
	}
	wg.Wait()
	seen := make(map[uint64]bool, n)
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
	}
}

func TestReplyCorrelation(t *testing.T) {
	from := Address{Node: "client", Task: "client"}
	to := Address{Node: "n1"}
	req := New(KindCreateTasks, from, to, nil)
	resp := req.Reply(KindTasksAccepted, []byte("ok"))
	if resp.CorrelID != req.ID {
		t.Errorf("CorrelID = %d, want %d", resp.CorrelID, req.ID)
	}
	if resp.From != to || resp.To != from {
		t.Errorf("reply endpoints not swapped: from=%v to=%v", resp.From, resp.To)
	}
	if resp.Kind != KindTasksAccepted {
		t.Errorf("reply kind = %v", resp.Kind)
	}
}

func TestHeaders(t *testing.T) {
	m := New(KindUser, Address{}, Address{}, nil)
	if m.Header("missing") != "" {
		t.Error("missing header should be empty")
	}
	m.SetHeader("class", "org.example.Task").SetHeader("x", "y")
	if m.Header("class") != "org.example.Task" || m.Header("x") != "y" {
		t.Errorf("headers = %v", m.Headers)
	}
}

func TestClone(t *testing.T) {
	m := New(KindUser, Address{Node: "a"}, Address{Node: "b"}, []byte{1, 2, 3})
	m.SetHeader("k", "v")
	c := m.Clone()
	c.Payload[0] = 99
	c.Headers["k"] = "w"
	if m.Payload[0] != 1 {
		t.Error("clone shares payload")
	}
	if m.Headers["k"] != "v" {
		t.Error("clone shares headers")
	}
}

func TestMessageString(t *testing.T) {
	m := New(KindPing, Address{Node: "a"}, Address{Node: "b"}, []byte("xy"))
	s := m.String()
	if s == "" {
		t.Error("String() empty")
	}
}

func TestMailboxFIFO(t *testing.T) {
	mb := NewMailbox[*Message]()
	for i := 0; i < 5; i++ {
		m := New(KindUser, Address{}, Address{}, []byte{byte(i)})
		if err := mb.Put(m); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if mb.Len() != 5 {
		t.Fatalf("Len = %d, want 5", mb.Len())
	}
	for i := 0; i < 5; i++ {
		m, err := mb.Get()
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if m.Payload[0] != byte(i) {
			t.Errorf("out of order: got %d at position %d", m.Payload[0], i)
		}
	}
}

func TestMailboxTryGetEmpty(t *testing.T) {
	mb := NewMailbox[*Message]()
	if _, err := mb.TryGet(); !errors.Is(err, ErrEmpty) {
		t.Errorf("TryGet on empty = %v, want ErrEmpty", err)
	}
}

// TestMailboxPutNeverBlocks: a live mailbox takes whatever it is given,
// however far its reader is behind, and gives it back in order.
func TestMailboxPutNeverBlocks(t *testing.T) {
	mb := NewMailbox[*Message]()
	const n = 100000
	for i := 0; i < n; i++ {
		if err := mb.Put(New(KindUser, Address{}, Address{}, []byte{byte(i)})); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	if mb.Len() != n {
		t.Fatalf("Len = %d, want %d", mb.Len(), n)
	}
	for i := 0; i < n; i++ {
		m, err := mb.TryGet()
		if err != nil || m.Payload[0] != byte(i) {
			t.Fatalf("TryGet %d = %v, %v", i, m, err)
		}
	}
}

func TestMailboxBlockingGet(t *testing.T) {
	mb := NewMailbox[*Message]()
	got := make(chan *Message, 1)
	go func() {
		m, err := mb.Get()
		if err != nil {
			t.Errorf("Get: %v", err)
		}
		got <- m
	}()
	time.Sleep(10 * time.Millisecond)
	want := New(KindUser, Address{}, Address{}, []byte("x"))
	if err := mb.Put(want); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m.ID != want.ID {
			t.Errorf("got message %d, want %d", m.ID, want.ID)
		}
	case <-time.After(time.Second):
		t.Fatal("Get did not unblock")
	}
}

func TestMailboxCloseUnblocksGet(t *testing.T) {
	mb := NewMailbox[*Message]()
	done := make(chan error, 1)
	go func() {
		_, err := mb.Get()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	mb.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("Get after close = %v, want ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Close did not unblock Get")
	}
}

func TestMailboxCloseDrainsRemaining(t *testing.T) {
	mb := NewMailbox[*Message]()
	if err := mb.Put(New(KindUser, Address{}, Address{}, nil)); err != nil {
		t.Fatal(err)
	}
	mb.Close()
	if _, err := mb.Get(); err != nil {
		t.Errorf("Get of queued message after close: %v", err)
	}
	if _, err := mb.Get(); !errors.Is(err, ErrClosed) {
		t.Errorf("Get after drain = %v, want ErrClosed", err)
	}
	if err := mb.Put(New(KindUser, Address{}, Address{}, nil)); !errors.Is(err, ErrClosed) {
		t.Errorf("Put after close = %v, want ErrClosed", err)
	}
}

func TestMailboxCloseIdempotent(t *testing.T) {
	mb := NewMailbox[*Message]()
	mb.Close()
	mb.Close() // must not panic
}

func TestMailboxGetContextCancel(t *testing.T) {
	mb := NewMailbox[*Message]()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := mb.GetContext(ctx)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("GetContext = %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("GetContext did not observe cancellation")
	}
}

func TestMailboxGetContextDelivers(t *testing.T) {
	mb := NewMailbox[*Message]()
	want := New(KindUser, Address{}, Address{}, nil)
	if err := mb.Put(want); err != nil {
		t.Fatal(err)
	}
	m, err := mb.GetContext(context.Background())
	if err != nil {
		t.Fatalf("GetContext: %v", err)
	}
	if m.ID != want.ID {
		t.Errorf("got %d, want %d", m.ID, want.ID)
	}
}

func TestMailboxDrain(t *testing.T) {
	mb := NewMailbox[*Message]()
	for i := 0; i < 3; i++ {
		if err := mb.Put(New(KindUser, Address{}, Address{}, nil)); err != nil {
			t.Fatal(err)
		}
	}
	out := mb.Drain()
	if len(out) != 3 {
		t.Errorf("Drain returned %d messages, want 3", len(out))
	}
	if mb.Len() != 0 {
		t.Errorf("Len after drain = %d", mb.Len())
	}
}

func TestMailboxConcurrentProducersConsumers(t *testing.T) {
	mb := NewMailbox[*Message]()
	const producers, perProducer = 8, 100
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if err := mb.Put(New(KindUser, Address{}, Address{}, nil)); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
			}
		}()
	}
	var consumed sync.WaitGroup
	var count int64
	var mu sync.Mutex
	for c := 0; c < 4; c++ {
		consumed.Add(1)
		go func() {
			defer consumed.Done()
			for {
				_, err := mb.Get()
				if err != nil {
					return
				}
				mu.Lock()
				count++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	// Wait for the queue to empty, then close to release consumers.
	for mb.Len() > 0 {
		time.Sleep(time.Millisecond)
	}
	mb.Close()
	consumed.Wait()
	if count != producers*perProducer {
		t.Errorf("consumed %d messages, want %d", count, producers*perProducer)
	}
}

// TestMailboxForgetsWhatIsRead: a read item's slot is cleared, so a reader
// working through a backlog does not keep what it has read reachable.
func TestMailboxForgetsWhatIsRead(t *testing.T) {
	mb := NewMailbox[*Message]()
	for i := 0; i < 20; i++ {
		if err := mb.Put(New(KindUser, Address{}, Address{}, nil)); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if _, err := mb.Get(); err != nil {
				t.Fatal(err)
			}
		}
	}
	mb.Drain()
	for i, m := range mb.ring {
		if m != nil {
			t.Errorf("slot %d still holds message %d after it was read", i, m.ID)
		}
	}
}

// TestMailboxKeepsEachProducersOrder: four producers put at once and one
// consumer reads; each producer's items arrive in the order it put them.
func TestMailboxKeepsEachProducersOrder(t *testing.T) {
	type item struct{ producer, seq int }
	const producers, perProducer = 4, 5000
	mb := NewMailbox[item]()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if err := mb.Put(item{p, i}); err != nil {
					t.Errorf("producer %d, put %d: %v", p, i, err)
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		mb.Close()
	}()
	var next [producers]int
	for {
		it, err := mb.Get()
		if errors.Is(err, ErrClosed) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if it.seq != next[it.producer] {
			t.Fatalf("producer %d: read %d, want %d", it.producer, it.seq, next[it.producer])
		}
		next[it.producer]++
	}
	for p, n := range next {
		if n != perProducer {
			t.Errorf("producer %d: %d items read, want %d", p, n, perProducer)
		}
	}
}

// FuzzMailboxMatchesSlice runs a sequence of operations — one per input
// byte — on a mailbox and on a plain slice with a closed flag, and requires
// every result and every error to agree. A Get that would block is made
// with a cancelled context instead.
func FuzzMailboxMatchesSlice(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 2, 3, 1, 1, 2})
	f.Add([]byte{0, 0, 5, 1, 0, 4, 1, 2, 3})
	f.Add(bytes.Repeat([]byte{0, 0, 0, 1}, 40))
	f.Fuzz(func(t *testing.T, ops []byte) {
		mb := NewMailbox[int]()
		var model []int
		closed := false
		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		for step, op := range ops {
			switch op % 6 {
			case 0: // Put
				err := mb.Put(step)
				if closed {
					if !errors.Is(err, ErrClosed) {
						t.Fatalf("step %d: Put after Close = %v, want ErrClosed", step, err)
					}
				} else if err != nil {
					t.Fatalf("step %d: Put = %v", step, err)
				} else {
					model = append(model, step)
				}
			case 1: // Get, or GetContext when Get would block
				var v int
				var err error
				if len(model) == 0 && !closed {
					v, err = mb.GetContext(cancelled)
					if !errors.Is(err, context.Canceled) {
						t.Fatalf("step %d: GetContext on empty = %d, %v, want context.Canceled", step, v, err)
					}
					continue
				}
				v, err = mb.Get()
				if len(model) == 0 {
					if !errors.Is(err, ErrClosed) {
						t.Fatalf("step %d: Get on closed and drained = %d, %v, want ErrClosed", step, v, err)
					}
					continue
				}
				if err != nil || v != model[0] {
					t.Fatalf("step %d: Get = %d, %v, want %d", step, v, err, model[0])
				}
				model = model[1:]
			case 2: // TryGet
				v, err := mb.TryGet()
				switch {
				case len(model) > 0:
					if err != nil || v != model[0] {
						t.Fatalf("step %d: TryGet = %d, %v, want %d", step, v, err, model[0])
					}
					model = model[1:]
				case closed:
					if !errors.Is(err, ErrClosed) {
						t.Fatalf("step %d: TryGet on closed and drained = %v, want ErrClosed", step, err)
					}
				case !errors.Is(err, ErrEmpty):
					t.Fatalf("step %d: TryGet on empty = %v, want ErrEmpty", step, err)
				}
			case 3: // Len
				if n := mb.Len(); n != len(model) {
					t.Fatalf("step %d: Len = %d, want %d", step, n, len(model))
				}
			case 4: // Drain
				if got := mb.Drain(); !slices.Equal(got, model) {
					t.Fatalf("step %d: Drain = %v, want %v", step, got, model)
				}
				model = nil
			case 5: // Close
				mb.Close()
				closed = true
			}
		}
	})
}
