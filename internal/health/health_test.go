package health

import (
	"testing"
	"time"
)

// fakeClock is a manually advanced clock for deterministic lease tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time { return c.t }
func (c *fakeClock) advance(d time.Duration) time.Time {
	c.t = c.t.Add(d)
	return c.t
}

func newTestMonitor(suspect, dead time.Duration) (*Monitor, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	m := NewMonitor(Config{
		SuspectAfter: suspect,
		DeadAfter:    dead,
		Sweep:        -1, // tests drive CheckNow
		Now:          clk.now,
	})
	return m, clk
}

func drain(ch <-chan Event) []Event {
	var out []Event
	for {
		select {
		case ev := <-ch:
			out = append(out, ev)
		default:
			return out
		}
	}
}

func TestLeaseExpiry(t *testing.T) {
	m, clk := newTestMonitor(30*time.Millisecond, 90*time.Millisecond)
	defer m.Close()
	ch, cancel := m.Subscribe()
	defer cancel()

	m.Observe("n1")
	if got := m.State("n1"); got != StateAlive {
		t.Fatalf("state after beat = %v, want alive", got)
	}
	// Fresh lease within the window stays alive.
	m.CheckNow(clk.advance(10 * time.Millisecond))
	if got := m.State("n1"); got != StateAlive {
		t.Fatalf("state at +10ms = %v, want alive", got)
	}
	if evs := drain(ch); len(evs) != 0 {
		t.Fatalf("unexpected events %v", evs)
	}
	// Past SuspectAfter the lease lapses to suspect, exactly once.
	m.CheckNow(clk.advance(25 * time.Millisecond))
	m.CheckNow(clk.advance(1 * time.Millisecond))
	if got := m.State("n1"); got != StateSuspect {
		t.Fatalf("state at +36ms = %v, want suspect", got)
	}
	evs := drain(ch)
	if len(evs) != 1 || evs[0].Node != "n1" || evs[0].State != StateSuspect {
		t.Fatalf("events = %v, want one suspect event", evs)
	}
}

func TestSuspectToDeadTransition(t *testing.T) {
	m, clk := newTestMonitor(30*time.Millisecond, 90*time.Millisecond)
	defer m.Close()
	ch, cancel := m.Subscribe()
	defer cancel()

	m.Observe("n1")
	m.CheckNow(clk.advance(40 * time.Millisecond)) // -> suspect
	m.CheckNow(clk.advance(60 * time.Millisecond)) // 100ms lapse -> dead
	m.CheckNow(clk.advance(10 * time.Millisecond)) // no duplicate dead event
	if got := m.State("n1"); got != StateDead {
		t.Fatalf("state = %v, want dead", got)
	}
	evs := drain(ch)
	if len(evs) != 2 || evs[0].State != StateSuspect || evs[1].State != StateDead {
		t.Fatalf("events = %v, want suspect then dead", evs)
	}
	if evs[1].SincePrev < 90*time.Millisecond {
		t.Fatalf("dead lapse = %v, want >= DeadAfter", evs[1].SincePrev)
	}
}

func TestWatchedNodeThatNeverBeatsExpires(t *testing.T) {
	m, clk := newTestMonitor(30*time.Millisecond, 60*time.Millisecond)
	defer m.Close()
	m.Watch("silent")
	m.CheckNow(clk.advance(100 * time.Millisecond))
	if got := m.State("silent"); got != StateDead {
		t.Fatalf("state = %v, want dead (watch starts the lease)", got)
	}
}

func TestBeatResurrectsSuspectAndDead(t *testing.T) {
	m, clk := newTestMonitor(30*time.Millisecond, 60*time.Millisecond)
	defer m.Close()
	ch, cancel := m.Subscribe()
	defer cancel()

	m.Observe("n1")
	m.CheckNow(clk.advance(100 * time.Millisecond))
	if got := m.State("n1"); got != StateDead {
		t.Fatalf("state = %v, want dead", got)
	}
	m.Observe("n1") // late beat: the node is back
	if got := m.State("n1"); got != StateAlive {
		t.Fatalf("state after resurrection = %v, want alive", got)
	}
	evs := drain(ch)
	if len(evs) == 0 || evs[len(evs)-1].State != StateAlive {
		t.Fatalf("events = %v, want trailing alive event", evs)
	}
}

func TestUnknownNodeReportsAlive(t *testing.T) {
	m, _ := newTestMonitor(time.Second, 2*time.Second)
	defer m.Close()
	if !m.Alive("never-seen") {
		t.Fatal("unknown nodes must report alive")
	}
}

// TestDeadNodeStaysDeadUntilItBeats: a dead row is not reopened by a
// Watch (a solicitation round offering the node) or by time passing; only
// the node's own beat brings it back.
func TestDeadNodeStaysDeadUntilItBeats(t *testing.T) {
	m, clk := newTestMonitor(10*time.Millisecond, 20*time.Millisecond)
	defer m.Close()
	ch, cancel := m.Subscribe()
	defer cancel()
	m.Observe("n1")
	m.CheckNow(clk.advance(time.Second))
	m.Watch("n1")
	m.CheckNow(clk.advance(time.Second))
	if got := m.State("n1"); got != StateDead {
		t.Fatalf("state after Watch = %v, want dead", got)
	}
	if evs := drain(ch); len(evs) != 1 || evs[0].State != StateDead {
		t.Fatalf("events = %v, want one dead event", evs)
	}
	m.Observe("n1")
	if got := m.State("n1"); got != StateAlive {
		t.Fatalf("state after a beat = %v, want alive", got)
	}
}

func TestSweeperDetectsDeathInRealTime(t *testing.T) {
	m := NewMonitor(Config{
		SuspectAfter: 20 * time.Millisecond,
		DeadAfter:    40 * time.Millisecond,
		Sweep:        5 * time.Millisecond,
	})
	defer m.Close()
	ch, cancel := m.Subscribe()
	defer cancel()
	m.Observe("n1")
	deadline := time.After(2 * time.Second)
	for {
		select {
		case ev := <-ch:
			if ev.State == StateDead {
				return
			}
		case <-deadline:
			t.Fatal("sweeper never declared the silent node dead")
		}
	}
}
