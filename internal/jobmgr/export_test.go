package jobmgr

import (
	"fmt"
	"testing"

	"cn/internal/msg"
	"cn/internal/protocol"
	"cn/internal/task"
)

// TableSizes reports how many records the live table and the tombstone
// index hold.
func (jm *JobManager) TableSizes() (live, retired int) {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	return len(jm.jobs), len(jm.tombs)
}

// CachedFreeMB is the free memory the placement directory serves for node,
// -1 when it holds no entry; a stale cache is refreshed by a round first.
func (jm *JobManager) CachedFreeMB(node string) int {
	offers, _ := jm.dir.Offers()
	for _, o := range offers {
		if o.Node == node {
			return o.FreeMemoryMB
		}
	}
	return -1
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

// testSchedule drives a job's task table by task name, as the schedule
// tests read.
type testSchedule struct{ *taskTable }

// newSchedule builds and starts a table over specs.
func newSchedule(specs []*task.Spec) (testSchedule, error) {
	t := newTaskTable(len(specs))
	for _, sp := range specs {
		if err := t.add(sp, protocol.ArchiveRef{}); err != nil {
			return testSchedule{}, err
		}
	}
	return testSchedule{&t}, t.start()
}

func (s testSchedule) names(ords []int32) []string {
	var out []string
	for _, i := range ords {
		out = append(out, s.tasks[i].spec.Name)
	}
	return out
}

func (s testSchedule) Status(name string) Status { return s.row(name).status }
func (s testSchedule) Ready() []string           { return s.names(s.taskTable.Ready()) }
func (s testSchedule) Rerun(name string) bool    { return s.taskTable.Rerun(s.index[name]) }
func (s testSchedule) Complete(name string) ([]string, error) {
	newly, err := s.taskTable.Complete(s.index[name])
	return s.names(newly), err
}

// MarkRunning transitions a ready task to running, as the JobManager does
// with the tasks it dispatches.
func (s testSchedule) MarkRunning(name string) error {
	if st := s.Status(name); st != StatusReady {
		return fmt.Errorf("jobmgr: task %q is %s, not ready", name, st)
	}
	s.row(name).status = StatusRunning
	return nil
}

// Fail records failed termination of a running task; the job is failed
// and every not-yet-terminal task is cancelled.
func (s testSchedule) Fail(name string) error {
	if st := s.Status(name); st != StatusRunning {
		return fmt.Errorf("jobmgr: fail %q: state %s", name, st)
	}
	s.FailAny(s.index[name])
	return nil
}

// Counts returns how many tasks are in each state.
func (s testSchedule) Counts() map[Status]int {
	out := make(map[Status]int)
	for i := range s.tasks {
		out[s.tasks[i].status]++
	}
	return out
}
