package taskmgr

import (
	"fmt"
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
	tm := New(config.Config{HeartbeatInterval: -1}, "tm0", nil, func(string, *msg.Message) error { return nil }, nil)
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

// TestBeatOnceIdleAllocFree: an idle TaskManager heartbeats forever on
// every node; its beat must settle to zero allocations per tick (it used
// to build two fresh maps every round).
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

// TestBeatOnceGoodbyeSemanticsSurviveReuse: the scratch-map reuse must not
// change the goodbye protocol — a JobManager that loses its last task gets
// exactly one empty beat, then silence.
func TestBeatOnceGoodbyeSemanticsSurviveReuse(t *testing.T) {
	type beat struct {
		jm    string
		tasks int
	}
	var sent []beat
	tm := New(config.Config{HeartbeatInterval: -1}, "tm0", nil, func(to string, m *msg.Message) error {
		var hb protocol.Heartbeat
		if err := protocol.Decode(m, &hb); err != nil {
			t.Fatalf("decode heartbeat: %v", err)
		}
		sent = append(sent, beat{jm: to, tasks: len(hb.Beats)})
		return nil
	}, nil)
	defer tm.Close()

	addFakeAssignment(tm, "jm1", "job1", "t1")
	tm.beatOnce()
	if len(sent) != 1 || sent[0] != (beat{"jm1", 1}) {
		t.Fatalf("first beat = %v, want one 1-task beat to jm1", sent)
	}

	// The task finishes; the next beat is the goodbye (empty), and after
	// that jm1 hears nothing.
	tm.mu.Lock()
	delete(tm.assigned, "job1/t1")
	tm.mu.Unlock()
	sent = nil
	tm.beatOnce()
	if len(sent) != 1 || sent[0] != (beat{"jm1", 0}) {
		t.Fatalf("post-removal beat = %v, want one goodbye (0 tasks) to jm1", sent)
	}
	sent = nil
	tm.beatOnce()
	tm.beatOnce()
	if len(sent) != 0 {
		t.Fatalf("beats after goodbye = %v, want none", sent)
	}

	// Reappearing assignments resume normal beats on the reused scratch.
	addFakeAssignment(tm, "jm1", "job2", "t9")
	sent = nil
	tm.beatOnce()
	if len(sent) != 1 || sent[0] != (beat{"jm1", 1}) {
		t.Fatalf("beat after re-assignment = %v, want one 1-task beat to jm1", sent)
	}
}
