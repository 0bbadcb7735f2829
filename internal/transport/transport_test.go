package transport

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cn/internal/msg"
)

// collector accumulates received messages behind a mutex.
type collector struct {
	mu   sync.Mutex
	msgs []*msg.Message
	ch   chan *msg.Message
}

func newCollector() *collector {
	return &collector{ch: make(chan *msg.Message, 256)}
}

func (c *collector) handle(m *msg.Message) {
	c.mu.Lock()
	c.msgs = append(c.msgs, m)
	c.mu.Unlock()
	c.ch <- m
}

func (c *collector) wait(t *testing.T, n int, d time.Duration) []*msg.Message {
	t.Helper()
	deadline := time.After(d)
	for {
		c.mu.Lock()
		have := len(c.msgs)
		c.mu.Unlock()
		if have >= n {
			c.mu.Lock()
			defer c.mu.Unlock()
			return append([]*msg.Message(nil), c.msgs...)
		}
		select {
		case <-deadline:
			t.Fatalf("timed out waiting for %d messages (have %d)", n, have)
		case <-time.After(time.Millisecond):
		}
	}
}

// networks under test; each case builds a fresh fabric.
func eachNetwork(t *testing.T, f func(t *testing.T, n Network)) {
	t.Helper()
	t.Run("mem", func(t *testing.T) {
		n := NewIdealNetwork()
		defer n.Close()
		f(t, n)
	})
	t.Run("tcp", func(t *testing.T) {
		n := NewTCPNetwork()
		defer n.Close()
		f(t, n)
	})
}

func TestUnicastDelivery(t *testing.T) {
	eachNetwork(t, func(t *testing.T, n Network) {
		recv := newCollector()
		a, err := n.Attach("a", func(*msg.Message) {})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.Attach("b", recv.handle); err != nil {
			t.Fatal(err)
		}
		m := msg.New(msg.KindPing, msg.Address{Node: "a"}, msg.Address{Node: "b"}, []byte("hi"))
		if err := a.Send("b", m); err != nil {
			t.Fatal(err)
		}
		got := recv.wait(t, 1, time.Second)
		if got[0].Kind != msg.KindPing || string(got[0].Payload) != "hi" {
			t.Errorf("got %v payload %q", got[0].Kind, got[0].Payload)
		}
	})
}

func TestSendToUnknownNode(t *testing.T) {
	eachNetwork(t, func(t *testing.T, n Network) {
		a, err := n.Attach("a", func(*msg.Message) {})
		if err != nil {
			t.Fatal(err)
		}
		err = a.Send("ghost", msg.New(msg.KindPing, msg.Address{}, msg.Address{}, nil))
		if !errors.Is(err, ErrUnknownNode) {
			t.Errorf("Send to ghost = %v, want ErrUnknownNode", err)
		}
	})
}

func TestDuplicateNodeRejected(t *testing.T) {
	eachNetwork(t, func(t *testing.T, n Network) {
		if _, err := n.Attach("a", func(*msg.Message) {}); err != nil {
			t.Fatal(err)
		}
		if _, err := n.Attach("a", func(*msg.Message) {}); !errors.Is(err, ErrDuplicateNode) {
			t.Errorf("duplicate Attach = %v, want ErrDuplicateNode", err)
		}
	})
}

func TestAttachValidation(t *testing.T) {
	eachNetwork(t, func(t *testing.T, n Network) {
		if _, err := n.Attach("", func(*msg.Message) {}); err == nil {
			t.Error("empty node name accepted")
		}
		if _, err := n.Attach("x", nil); err == nil {
			t.Error("nil handler accepted")
		}
	})
}

func TestMulticastReachesMembersOnly(t *testing.T) {
	eachNetwork(t, func(t *testing.T, n Network) {
		sender, err := n.Attach("s", func(*msg.Message) {})
		if err != nil {
			t.Fatal(err)
		}
		inGroup := newCollector()
		outGroup := newCollector()
		m1, err := n.Attach("m1", inGroup.handle)
		if err != nil {
			t.Fatal(err)
		}
		m2, err := n.Attach("m2", inGroup.handle)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.Attach("outsider", outGroup.handle); err != nil {
			t.Fatal(err)
		}
		if err := m1.Join("jm"); err != nil {
			t.Fatal(err)
		}
		if err := m2.Join("jm"); err != nil {
			t.Fatal(err)
		}
		if err := sender.Multicast("jm", msg.New(msg.KindJobManagerSolicit, msg.Address{Node: "s"}, msg.Address{}, nil)); err != nil {
			t.Fatal(err)
		}
		inGroup.wait(t, 2, time.Second)
		time.Sleep(20 * time.Millisecond)
		outGroup.mu.Lock()
		extra := len(outGroup.msgs)
		outGroup.mu.Unlock()
		if extra != 0 {
			t.Errorf("outsider received %d multicast messages", extra)
		}
	})
}

func TestMulticastLoopsBackToSender(t *testing.T) {
	// IP_MULTICAST_LOOP semantics: a sender that joined the group receives
	// its own multicast (a CN server's JobManager solicits its own
	// TaskManager this way).
	eachNetwork(t, func(t *testing.T, n Network) {
		self := newCollector()
		a, err := n.Attach("a", self.handle)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Join("g"); err != nil {
			t.Fatal(err)
		}
		if err := a.Multicast("g", msg.New(msg.KindPing, msg.Address{}, msg.Address{}, nil)); err != nil {
			t.Fatal(err)
		}
		self.wait(t, 1, time.Second)
	})
}

func TestMulticastNonMemberSenderNoLoopback(t *testing.T) {
	eachNetwork(t, func(t *testing.T, n Network) {
		self := newCollector()
		recv := newCollector()
		a, err := n.Attach("a", self.handle)
		if err != nil {
			t.Fatal(err)
		}
		b, err := n.Attach("b", recv.handle)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Join("g"); err != nil {
			t.Fatal(err)
		}
		if err := a.Multicast("g", msg.New(msg.KindPing, msg.Address{}, msg.Address{}, nil)); err != nil {
			t.Fatal(err)
		}
		recv.wait(t, 1, time.Second)
		self.mu.Lock()
		defer self.mu.Unlock()
		if len(self.msgs) != 0 {
			t.Errorf("non-member sender received its own multicast")
		}
	})
}

func TestLeaveStopsDelivery(t *testing.T) {
	eachNetwork(t, func(t *testing.T, n Network) {
		recv := newCollector()
		a, err := n.Attach("a", func(*msg.Message) {})
		if err != nil {
			t.Fatal(err)
		}
		b, err := n.Attach("b", recv.handle)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Join("g"); err != nil {
			t.Fatal(err)
		}
		if err := b.Leave("g"); err != nil {
			t.Fatal(err)
		}
		if err := a.Multicast("g", msg.New(msg.KindPing, msg.Address{}, msg.Address{}, nil)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
		recv.mu.Lock()
		defer recv.mu.Unlock()
		if len(recv.msgs) != 0 {
			t.Errorf("received after Leave: %d", len(recv.msgs))
		}
	})
}

func TestJoinEmptyGroup(t *testing.T) {
	eachNetwork(t, func(t *testing.T, n Network) {
		a, err := n.Attach("a", func(*msg.Message) {})
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Join(""); err == nil {
			t.Error("Join(\"\") accepted")
		}
	})
}

func TestSendAfterEndpointClose(t *testing.T) {
	eachNetwork(t, func(t *testing.T, n Network) {
		a, err := n.Attach("a", func(*msg.Message) {})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.Attach("b", func(*msg.Message) {}); err != nil {
			t.Fatal(err)
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		if err := a.Send("b", msg.New(msg.KindPing, msg.Address{}, msg.Address{}, nil)); !errors.Is(err, ErrClosed) {
			t.Errorf("Send after close = %v, want ErrClosed", err)
		}
	})
}

func TestCloseFreesNodeName(t *testing.T) {
	eachNetwork(t, func(t *testing.T, n Network) {
		a, err := n.Attach("a", func(*msg.Message) {})
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := n.Attach("a", func(*msg.Message) {}); err != nil {
			t.Errorf("re-Attach after Close: %v", err)
		}
	})
}

func TestEndpointCloseIdempotent(t *testing.T) {
	eachNetwork(t, func(t *testing.T, n Network) {
		a, err := n.Attach("a", func(*msg.Message) {})
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		if err := a.Close(); err != nil {
			t.Errorf("second Close: %v", err)
		}
	})
}

func TestNetworkCloseIdempotent(t *testing.T) {
	n := NewIdealNetwork()
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach("a", func(*msg.Message) {}); !errors.Is(err, ErrClosed) {
		t.Errorf("Attach after Close = %v", err)
	}
}

func TestMemLatency(t *testing.T) {
	n := NewMemNetwork(MemConfig{Latency: 30 * time.Millisecond})
	defer n.Close()
	recv := newCollector()
	a, err := n.Attach("a", func(*msg.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach("b", recv.handle); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := a.Send("b", msg.New(msg.KindPing, msg.Address{}, msg.Address{}, nil)); err != nil {
		t.Fatal(err)
	}
	recv.wait(t, 1, time.Second)
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Errorf("delivery took %v, want >= ~30ms latency", elapsed)
	}
}

func TestMemLossDeterministic(t *testing.T) {
	const sends = 1000
	run := func(seed int64) int64 {
		n := NewMemNetwork(MemConfig{Loss: 0.5, Seed: seed})
		defer n.Close()
		var delivered atomic.Int64
		a, err := n.Attach("a", func(*msg.Message) {})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.Attach("b", func(*msg.Message) { delivered.Add(1) }); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < sends; i++ {
			if err := a.Send("b", msg.New(msg.KindPing, msg.Address{}, msg.Address{}, nil)); err != nil {
				t.Fatal(err)
			}
		}
		// All deliveries are synchronous at zero latency, but give the
		// dispatcher a moment to drain.
		deadline := time.Now().Add(time.Second)
		for time.Now().Before(deadline) {
			s, _, d, _ := n.Stats().Snapshot()
			if s == sends && delivered.Load()+d == sends {
				break
			}
			time.Sleep(time.Millisecond)
		}
		return delivered.Load()
	}
	d1 := run(42)
	d2 := run(42)
	if d1 != d2 {
		t.Errorf("same seed delivered %d then %d", d1, d2)
	}
	if d1 == 0 || d1 == sends {
		t.Errorf("loss=0.5 delivered %d of %d", d1, sends)
	}
}

func TestMemOrderingNoJitter(t *testing.T) {
	n := NewIdealNetwork()
	defer n.Close()
	recv := newCollector()
	a, err := n.Attach("a", func(*msg.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach("b", recv.handle); err != nil {
		t.Fatal(err)
	}
	const count = 100
	for i := 0; i < count; i++ {
		if err := a.Send("b", msg.New(msg.KindUser, msg.Address{}, msg.Address{}, []byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	got := recv.wait(t, count, time.Second)
	for i := 0; i < count; i++ {
		if got[i].Payload[0] != byte(i) {
			t.Fatalf("out of order at %d: %d", i, got[i].Payload[0])
		}
	}
}

func TestCallerCallReply(t *testing.T) {
	eachNetwork(t, func(t *testing.T, n Network) {
		var serverEP Endpoint
		server, err := n.Attach("server", func(m *msg.Message) {
			// Echo a correlated pong.
			reply := m.Reply(msg.KindPong, m.Payload)
			_ = serverEP.Send(m.From.Node, reply)
		})
		if err != nil {
			t.Fatal(err)
		}
		serverEP = server

		var caller *Caller
		clientEP, err := n.Attach("client", func(m *msg.Message) {
			if !caller.Handle(m) {
				t.Errorf("unexpected non-reply message %v", m)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		caller = NewCaller(clientEP)

		req := msg.New(msg.KindPing, msg.Address{Node: "client"}, msg.Address{Node: "server"}, []byte("abc"))
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		resp, err := caller.Call(ctx, "server", req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Kind != msg.KindPong || string(resp.Payload) != "abc" {
			t.Errorf("resp = %v %q", resp.Kind, resp.Payload)
		}
	})
}

func TestCallerCallTimeout(t *testing.T) {
	n := NewIdealNetwork()
	defer n.Close()
	if _, err := n.Attach("blackhole", func(*msg.Message) {}); err != nil {
		t.Fatal(err)
	}
	var caller *Caller
	ep, err := n.Attach("client", func(m *msg.Message) { caller.Handle(m) })
	if err != nil {
		t.Fatal(err)
	}
	caller = NewCaller(ep)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err = caller.Call(ctx, "blackhole", msg.New(msg.KindPing, msg.Address{Node: "client"}, msg.Address{}, nil))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Call = %v, want deadline exceeded", err)
	}
}

// TestCallerOwnsCallDeadlines: a call bounded by within fails at its
// deadline with context.DeadlineExceeded though its context never ends; a
// later deadline still fires after an earlier one re-armed the one timer;
// the caller's own context still ends a call first; and the moment the last
// call is over, neither a pending entry nor an armed timer is left.
func TestCallerOwnsCallDeadlines(t *testing.T) {
	n := NewIdealNetwork()
	defer n.Close()
	if _, err := n.Attach("silent", func(*msg.Message) {}); err != nil {
		t.Fatal(err)
	}
	var caller *Caller
	ep, err := n.Attach("client", func(m *msg.Message) { caller.Handle(m) })
	if err != nil {
		t.Fatal(err)
	}
	caller = NewCaller(ep)
	call := func(ctx context.Context, within time.Duration) (time.Duration, error) {
		start := time.Now()
		_, err := caller.CallInto(ctx, "silent", msg.New(msg.KindPing, msg.Address{Node: "client"}, msg.Address{Node: "silent"}, nil), nil, within)
		return time.Since(start), err
	}

	errs := make(chan error, 1)
	go func() {
		took, err := call(context.Background(), 150*time.Millisecond)
		if err == nil && took < 150*time.Millisecond {
			err = errors.New("answered before its deadline")
		}
		errs <- err
	}()
	took, err := call(context.Background(), 30*time.Millisecond)
	if !errors.Is(err, context.DeadlineExceeded) || took < 30*time.Millisecond || took > time.Second {
		t.Errorf("call to a silent peer: %v after %v, want DeadlineExceeded at 30ms", err, took)
	}
	if err := <-errs; !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("the later call: %v, want DeadlineExceeded", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if took, err := call(ctx, time.Hour); !errors.Is(err, context.DeadlineExceeded) || took > time.Second {
		t.Errorf("call under a 20ms context: %v after %v", err, took)
	}
	// The hour-long deadline is disarmed with its call: an armed timer would
	// keep the caller, and its endpoint's node, alive for the hour.
	caller.mu.Lock()
	pending, armed := len(caller.pending), !caller.armed.IsZero()
	caller.mu.Unlock()
	if pending != 0 || armed {
		t.Fatalf("%d calls pending, timer armed %v, after every call ended", pending, armed)
	}
}

func TestCallerGather(t *testing.T) {
	n := NewIdealNetwork()
	defer n.Close()
	// Three responders in the group, one of which stays silent.
	for i, silent := range []bool{false, false, true} {
		name := string(rune('r' + i))
		var ep Endpoint
		var err error
		s := silent
		ep, err = n.Attach("responder-"+name, func(m *msg.Message) {
			if s {
				return
			}
			_ = ep.Send(m.From.Node, m.Reply(msg.KindJobManagerOffer, nil))
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := ep.Join("jm"); err != nil {
			t.Fatal(err)
		}
	}
	var caller *Caller
	client, err := n.Attach("client", func(m *msg.Message) { caller.Handle(m) })
	if err != nil {
		t.Fatal(err)
	}
	caller = NewCaller(client)
	req := msg.New(msg.KindJobManagerSolicit, msg.Address{Node: "client"}, msg.Address{}, nil)
	replies, err := caller.Gather("jm", req, 100*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != 2 {
		t.Errorf("gathered %d replies, want 2", len(replies))
	}
}

func TestCallerGatherMaxShortCircuits(t *testing.T) {
	n := NewIdealNetwork()
	defer n.Close()
	for i := 0; i < 4; i++ {
		var ep Endpoint
		var err error
		ep, err = n.Attach("r"+string(rune('0'+i)), func(m *msg.Message) {
			_ = ep.Send(m.From.Node, m.Reply(msg.KindJobManagerOffer, nil))
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := ep.Join("jm"); err != nil {
			t.Fatal(err)
		}
	}
	var caller *Caller
	client, err := n.Attach("client", func(m *msg.Message) { caller.Handle(m) })
	if err != nil {
		t.Fatal(err)
	}
	caller = NewCaller(client)
	start := time.Now()
	req := msg.New(msg.KindJobManagerSolicit, msg.Address{Node: "client"}, msg.Address{}, nil)
	got := 0
	replies, err := caller.Gather("jm", req, 5*time.Second, func(*msg.Message) bool { got++; return got == 2 })
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != 2 {
		t.Errorf("gathered %d, want 2", len(replies))
	}
	if time.Since(start) > time.Second {
		t.Error("Gather waited for the full window after done said enough")
	}
}

func TestCallerHandleNonReply(t *testing.T) {
	n := NewIdealNetwork()
	defer n.Close()
	ep, err := n.Attach("x", func(*msg.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCaller(ep)
	if c.Handle(msg.New(msg.KindUser, msg.Address{}, msg.Address{}, nil)) {
		t.Error("Handle consumed a message with no CorrelID")
	}
	m := msg.New(msg.KindPong, msg.Address{}, msg.Address{}, nil)
	m.CorrelID = 12345
	if c.Handle(m) {
		t.Error("Handle consumed a reply nobody is waiting for")
	}
}

func TestStatsCount(t *testing.T) {
	n := NewIdealNetwork()
	defer n.Close()
	recv := newCollector()
	a, err := n.Attach("a", func(*msg.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach("b", recv.handle); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := a.Send("b", msg.New(msg.KindPing, msg.Address{}, msg.Address{}, nil)); err != nil {
			t.Fatal(err)
		}
	}
	recv.wait(t, 5, time.Second)
	sent, delivered, dropped, _ := n.Stats().Snapshot()
	if sent != 5 || delivered != 5 || dropped != 0 {
		t.Errorf("stats = sent %d delivered %d dropped %d", sent, delivered, dropped)
	}
}

func TestTCPReconnectAfterPeerRestart(t *testing.T) {
	n := NewTCPNetwork()
	defer n.Close()
	recv := newCollector()
	a, err := n.Attach("a", func(*msg.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Attach("b", recv.handle)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", msg.New(msg.KindPing, msg.Address{Node: "a"}, msg.Address{Node: "b"}, nil)); err != nil {
		t.Fatal(err)
	}
	recv.wait(t, 1, time.Second)

	// Restart b: close and re-attach under the same name (new port).
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	recv2 := newCollector()
	if _, err := n.Attach("b", recv2.handle); err != nil {
		t.Fatal(err)
	}
	// First send may fail while the stale connection is detected.
	var sendErr error
	for i := 0; i < 5; i++ {
		sendErr = a.Send("b", msg.New(msg.KindPing, msg.Address{Node: "a"}, msg.Address{Node: "b"}, nil))
		if sendErr == nil {
			break
		}
	}
	if sendErr != nil {
		t.Fatalf("send after restart: %v", sendErr)
	}
	recv2.wait(t, 1, 2*time.Second)
}

// TestMemLatencyKeepsPairOrder: delay and jitter are drawn per frame, but
// what one endpoint sends one peer arrives in the order it was sent, as on
// a connection — a one-way TS_OUT must not be overtaken by the
// TASK_COMPLETED behind it. Frames of different pairs may interleave.
func TestMemLatencyKeepsPairOrder(t *testing.T) {
	n := NewMemNetwork(MemConfig{Latency: time.Millisecond, Jitter: time.Millisecond, Seed: 7})
	defer n.Close()
	const frames = 1000
	type arrival struct {
		from string
		seq  uint64
	}
	got := make(chan arrival, 2*frames)
	if _, err := n.Attach("b", func(m *msg.Message) { got <- arrival{m.From.Node, m.CorrelID} }); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, node := range []string{"a", "c"} {
		ep, err := n.Attach(node, func(*msg.Message) {})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(1); i <= frames; i++ {
				m := msg.New(msg.KindPing, msg.Address{Node: ep.Node()}, msg.Address{Node: "b"}, nil)
				m.CorrelID = i
				if err := ep.Send("b", m); err != nil {
					t.Errorf("send %d from %s: %v", i, ep.Node(), err)
					return
				}
			}
		}()
	}
	wg.Wait()
	last := map[string]uint64{}
	timeout := time.After(10 * time.Second)
	for i := 0; i < 2*frames; i++ {
		select {
		case a := <-got:
			if a.seq != last[a.from]+1 {
				t.Fatalf("frame %d from %s arrived after frame %d", a.seq, a.from, last[a.from])
			}
			last[a.from] = a.seq
		case <-timeout:
			t.Fatalf("timed out after %d of %d frames", i, 2*frames)
		}
	}
}
