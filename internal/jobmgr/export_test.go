package jobmgr

import (
	"fmt"
	"testing"

	"cn/internal/msg"
	"cn/internal/protocol"
)

// TableSizes reports how many records the live table and the tombstone
// index hold.
func (jm *JobManager) TableSizes() (live, retired int) {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	return len(jm.jobs), len(jm.tombs)
}

// CheckpointNow runs one checkpoint round, as the ticker would.
func (jm *JobManager) CheckpointNow() { jm.checkpointAll() }

// PeerCheckpoints counts the peer job images this manager holds.
func (jm *JobManager) PeerCheckpoints() int {
	jm.peerMu.Lock()
	defer jm.peerMu.Unlock()
	n := 0
	for _, byJob := range jm.peerCkpts {
		n += len(byJob)
	}
	return n
}

// openTestJob opens a job named name from client c1 with a header-only
// CREATE_TASKS, as a client's first frame does, and returns its record.
func openTestJob(t *testing.T, jm *JobManager, name string) *jobState {
	t.Helper()
	id := "c1." + name
	r := jm.HandleCreateTasks(protocol.Body(msg.KindCreateTasks, msg.Address{Node: "c1", Task: protocol.ClientTaskName},
		msg.Address{Node: jm.node, Job: id}, protocol.CreateTasksReq{JobID: id, ClientNode: "c1", Name: name}))
	if r.Kind != msg.KindTasksAccepted {
		t.Fatalf("create %s answered %v", id, r.Kind)
	}
	j, err := jm.job(id)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// Len returns the number of tasks.
func (s *Schedule) Len() int { return len(s.state) }

// Fail records failed termination of a running task; the job is failed
// and every not-yet-terminal task is cancelled.
func (s *Schedule) Fail(name string) error {
	if st := s.state[name]; st != StatusRunning {
		return fmt.Errorf("jobmgr: fail %q: state %s", name, st)
	}
	s.FailAny(name)
	return nil
}

// Counts returns how many tasks are in each state.
func (s *Schedule) Counts() map[Status]int {
	out := make(map[Status]int)
	for _, st := range s.state {
		out[st]++
	}
	return out
}
