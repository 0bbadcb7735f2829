package taskmgr

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"cn/internal/config"
	"cn/internal/msg"
	"cn/internal/protocol"
	"cn/internal/task"
)

// beatBench builds a TaskManager with no heartbeat loop and a no-op send,
// so beatOnce can be driven by hand.
func beatBench(t *testing.T) *TaskManager {
	t.Helper()
	tm := New(config.Config{HeartbeatInterval: -1}, "tm0", nil, func(string, *msg.Message) error { return nil }, nil, nil)
	t.Cleanup(tm.Close)
	return tm
}

// addFakeAssignment plants a minimal assignment owned by jm — just enough
// state for beatOnce to snapshot.
func addFakeAssignment(tm *TaskManager, jm, jobID, name string) {
	tm.mu.Lock()
	tm.assigned[jobID+"/"+name] = newAssignment(jobID, jm, "", &task.Spec{Name: name})
	tm.mu.Unlock()
}

// TestBeatOnceIdleAllocFree: with no JobManager to beat and no assignment,
// a tick allocates nothing — the grouping map and its slices are reused
// across rounds (the beat used to build two fresh maps every round).
func TestBeatOnceIdleAllocFree(t *testing.T) {
	tm := beatBench(t)
	tm.beatOnce() // warm up: one-time lazy state
	if avg := testing.AllocsPerRun(100, tm.beatOnce); avg != 0 {
		t.Errorf("idle beatOnce allocates %.1f objects/tick, want 0", avg)
	}
}

// TestBeatOnceSteadyStateAllocsBounded: with a live assignment table the
// beat still allocates (messages go on the wire), but the per-tick cost
// must be bounded and stable — the grouping map and its slices are reused,
// so allocations must not scale with how long the manager has been up.
func TestBeatOnceSteadyStateAllocsBounded(t *testing.T) {
	tm := beatBench(t)
	for jm := 0; jm < 3; jm++ {
		for i := 0; i < 4; i++ {
			addFakeAssignment(tm, fmt.Sprintf("jm%d", jm), fmt.Sprintf("job%d", jm), fmt.Sprintf("t%d", i))
		}
	}
	tm.beatOnce() // warm up: scratch map keys and slice capacity
	first := testing.AllocsPerRun(50, tm.beatOnce)
	second := testing.AllocsPerRun(50, tm.beatOnce)
	if first != second {
		t.Errorf("beatOnce allocations drift: %.1f then %.1f objects/tick", first, second)
	}
	// 3 heartbeat messages/tick; the budget covers message + payload
	// construction (protocol.Body serializes each heartbeat) but NOT a
	// rebuilt grouping map, which would add a map, slice headers, and
	// growth reallocations on top every tick.
	const budget = 40.0
	if perJM := first / 3; perJM > budget {
		t.Errorf("beatOnce allocates %.1f objects per heartbeat, want <= %.0f", perJM, budget)
	}
}

// TestIdleTaskManagerBeatsEveryJobManager: a node's beat is its lease, so
// every member of the JobManager group — the node's own included — hears
// from it on every tick, whether or not it hosts their work, and an owner
// outside the group hears from it while it owns an assignment. An idle beat
// costs no more than a busy one.
func TestIdleTaskManagerBeatsEveryJobManager(t *testing.T) {
	type beat struct {
		jm    string
		tasks int
	}
	var sent []beat
	members := []string{"jm1", "jm2", "tm0"}
	tm := New(config.Config{HeartbeatInterval: -1}, "tm0", nil, func(to string, m *msg.Message) error {
		var hb protocol.Heartbeat
		if err := protocol.Decode(m, &hb); err != nil {
			t.Fatalf("decode heartbeat: %v", err)
		}
		if hb.Node != "tm0" {
			t.Fatalf("beat names node %q, want tm0", hb.Node)
		}
		sent = append(sent, beat{jm: to, tasks: len(hb.Beats)})
		return nil
	}, nil, func() []string { return members })
	defer tm.Close()
	tick := func() []beat {
		sent = nil
		tm.beatOnce()
		slices.SortFunc(sent, func(a, b beat) int { return strings.Compare(a.jm, b.jm) })
		return sent
	}
	idle := []beat{{"jm1", 0}, {"jm2", 0}, {"tm0", 0}}
	for i := 0; i < 3; i++ {
		if got := tick(); !slices.Equal(got, idle) {
			t.Fatalf("idle tick %d beat %v, want %v", i, got, idle)
		}
	}

	addFakeAssignment(tm, "jm1", "job1", "t1")
	addFakeAssignment(tm, "jmX", "job2", "t1")
	busy := []beat{{"jm1", 1}, {"jm2", 0}, {"jmX", 1}, {"tm0", 0}}
	if got := tick(); !slices.Equal(got, busy) {
		t.Fatalf("busy tick beat %v, want %v", got, busy)
	}

	// The tasks end: every member still hears from the node, and the owner
	// outside the group hears nothing more.
	tm.mu.Lock()
	clear(tm.assigned)
	tm.mu.Unlock()
	for i := 0; i < 3; i++ {
		if got := tick(); !slices.Equal(got, idle) {
			t.Fatalf("tick %d after the tasks ended beat %v, want %v", i, got, idle)
		}
	}

	// The same per-beat budget as TestBeatOnceSteadyStateAllocsBounded, on
	// the same no-op send.
	tm.send = func(string, *msg.Message) error { return nil }
	if perBeat := testing.AllocsPerRun(50, tm.beatOnce) / float64(len(members)); perBeat > 40 {
		t.Errorf("idle beatOnce allocates %.1f objects per heartbeat, want <= 40", perBeat)
	}
}
