// Package jobmgr implements the CN JobManager: "a conduit between the
// client CN application and the Job". It creates jobs on behalf of
// clients, solicits TaskManagers for task placement, uploads archives,
// starts tasks in dependency order, routes user messages between tasks and
// the client, and collates terminal job status.
package jobmgr

import (
	"fmt"
	"time"

	"cn/internal/protocol"
	"cn/internal/task"
)

// Status is a task's scheduling state inside a job.
type Status int

// Task scheduling states.
const (
	// StatusPending means dependencies are not yet satisfied.
	StatusPending Status = iota
	// StatusReady means the task may start.
	StatusReady
	// StatusRunning means the task has been dispatched to its TaskManager.
	StatusRunning
	// StatusDone means the task completed successfully.
	StatusDone
	// StatusFailed means the task terminated with an error.
	StatusFailed
	// StatusCancelled means the task was abandoned because the job failed.
	StatusCancelled
)

var statusNames = map[Status]string{
	StatusPending:   "pending",
	StatusReady:     "ready",
	StatusRunning:   "running",
	StatusDone:      "done",
	StatusFailed:    "failed",
	StatusCancelled: "cancelled",
}

// String returns the lowercase status name.
func (s Status) String() string {
	if n, ok := statusNames[s]; ok {
		return n
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// terminal reports whether a task in state s has ended.
func (s Status) terminal() bool { return s >= StatusDone }

// taskRow is one task of a job: what the client created, where it runs,
// and how far it got.
type taskRow struct {
	spec    *task.Spec
	archive protocol.ArchiveRef
	node    string // the primary copy's node; "" until placed
	twin    string // the speculative twin's node; "" when there is none

	status     Status
	unmet      int32   // dependencies not yet completed; filled at start
	dependents []int32 // ordinals of the tasks that depend on this one
	// credited is set by the task's first completion, which counts toward
	// its dependents; a re-run's completion must not count again.
	credited bool

	retries  int  // re-placements (recovery and speculation), bounded by MaxTaskRetries
	retrying bool // a re-placement is in flight, so no other path places it
	err      string
	// beat is the primary's last observed progress sync; a running task
	// whose beat stops advancing past StragglerAfter is a speculation
	// candidate. A zero changedAt means no baseline yet.
	beat beatState
}

// beatState is one task's last observed progress sync.
type beatState struct {
	progress  uint64
	changedAt time.Time
}

// taskTable is a job's tasks, one row per task in creation order, and the
// dependency schedule over them. A task is referred to by its ordinal; its
// name is looked up once, where it arrives from the wire. Until the job
// starts a refused frame's rows are taken back and the table compacted, so
// only the name index may hold an ordinal across a release of the job's
// lock; once started the table is frozen and ordinals are stable. It is
// not concurrency-safe; the owning job's lock serializes access.
type taskTable struct {
	tasks    []taskRow
	index    map[string]int32
	started  bool
	terminal int
	failed   bool
}

func newTaskTable(n int) taskTable {
	return taskTable{tasks: make([]taskRow, 0, n), index: make(map[string]int32, n)}
}

// row returns the named task's row, nil for a task the job does not hold.
func (t *taskTable) row(name string) *taskRow {
	if i, ok := t.index[name]; ok {
		return &t.tasks[i]
	}
	return nil
}

// add appends a row for a task the job does not hold yet.
func (t *taskTable) add(sp *task.Spec, ref protocol.ArchiveRef) error {
	if _, dup := t.index[sp.Name]; dup {
		return fmt.Errorf("task %q already created", sp.Name)
	}
	t.index[sp.Name] = int32(len(t.tasks))
	t.tasks = append(t.tasks, taskRow{spec: sp, archive: ref})
	return nil
}

// drop takes back the rows of a refused frame, which the job has not
// started on, and compacts the table: the name index is rebuilt.
func (t *taskTable) drop(items []protocol.TaskCreate) {
	if len(items) == 0 {
		return
	}
	for _, it := range items {
		if i, ok := t.index[it.Spec.Name]; ok {
			t.tasks[i].spec = nil
		}
	}
	kept := t.tasks[:0]
	for _, r := range t.tasks {
		if r.spec != nil {
			kept = append(kept, r)
		}
	}
	clear(t.tasks[len(kept):])
	t.tasks = kept
	clear(t.index)
	for i := range kept {
		t.index[kept[i].spec.Name] = int32(i)
	}
}

// start links each task to the tasks it depends on and settles the derived
// state from the rows' statuses: every one pending for a job starting now,
// the image's for an adopted one. Completed tasks credit their dependents,
// failed or cancelled ones fail the job, and a pending task with no unmet
// dependency becomes ready. Every dependency must name a task of the table
// (callers validate acyclicity via cnx/core).
func (t *taskTable) start() error {
	for i := range t.tasks {
		for _, d := range t.tasks[i].spec.DependsOn {
			if _, ok := t.index[d]; !ok {
				return fmt.Errorf("jobmgr: task %q depends on unknown task %q", t.tasks[i].spec.Name, d)
			}
		}
	}
	for i := range t.tasks {
		for _, d := range t.tasks[i].spec.DependsOn {
			dr := &t.tasks[t.index[d]]
			// A dependency named twice counts once: the task's own ordinal
			// already ends the list.
			if n := len(dr.dependents); n > 0 && dr.dependents[n-1] == int32(i) {
				continue
			}
			dr.dependents = append(dr.dependents, int32(i))
			t.tasks[i].unmet++
		}
	}
	for i := range t.tasks {
		switch r := &t.tasks[i]; r.status {
		case StatusDone:
			t.terminal++
			r.credited = true
			for _, d := range r.dependents {
				t.tasks[d].unmet--
			}
		case StatusFailed, StatusCancelled:
			t.terminal++
			t.failed = true
		}
	}
	for i := range t.tasks {
		if r := &t.tasks[i]; r.status == StatusPending && r.unmet == 0 {
			r.status = StatusReady
		}
	}
	t.started = true
	return nil
}

// unstart undoes the start of a job whose start frame was refused before
// any of its tasks ran.
func (t *taskTable) unstart() {
	for i := range t.tasks {
		r := &t.tasks[i]
		r.status, r.unmet, r.dependents, r.credited = StatusPending, 0, nil, false
	}
	t.started, t.terminal, t.failed = false, 0, false
}

// Ready returns the tasks that may start now, in ordinal order.
func (t *taskTable) Ready() []int32 {
	var out []int32
	for i := range t.tasks {
		if t.tasks[i].status == StatusReady {
			out = append(out, int32(i))
		}
	}
	return out
}

// Complete records successful termination and returns, in ordinal order,
// the tasks that became ready as a result.
func (t *taskTable) Complete(i int32) ([]int32, error) {
	r := &t.tasks[i]
	if r.status != StatusRunning {
		return nil, fmt.Errorf("jobmgr: complete %q: state %s", r.spec.Name, r.status)
	}
	r.status = StatusDone
	t.terminal++
	if r.credited {
		return nil, nil
	}
	r.credited = true
	var newly []int32
	for _, d := range r.dependents {
		dr := &t.tasks[d]
		if dr.unmet--; dr.unmet == 0 && dr.status == StatusPending {
			dr.status = StatusReady
			newly = append(newly, d)
		}
	}
	return newly, nil
}

// Rerun moves a done task with no re-placement in flight back to running
// and marks it retrying — the recovery transition for a completed producer
// whose only data-plane output copy died with its node. Its dependents need
// no rewind: the first completion credited them, and the re-completion
// does not credit them again.
func (t *taskTable) Rerun(i int32) bool {
	r := &t.tasks[i]
	if r.status != StatusDone || r.retrying {
		return false
	}
	r.status, r.retrying = StatusRunning, true
	t.terminal--
	return true
}

// FailAny records failed termination for a task in any non-terminal state
// — the recovery engine's transition for tasks whose assignment was lost
// and could not be re-placed (a pending orphan never reached running, but
// its loss is just as fatal to the job) — and cancels every task not yet
// running. It reports whether a transition happened; already-terminal
// tasks are left untouched.
func (t *taskTable) FailAny(i int32) bool {
	if t.tasks[i].status.terminal() {
		return false
	}
	t.tasks[i].status = StatusFailed
	t.terminal++
	t.failed = true
	for k := range t.tasks {
		if r := &t.tasks[k]; r.status == StatusPending || r.status == StatusReady {
			r.status = StatusCancelled
			t.terminal++
		}
	}
	return true
}

// CancelAll cancels every non-terminal task (used for client-initiated
// job cancellation). Running tasks stay running until their TaskManagers
// observe the cancellation; they are counted terminal here.
func (t *taskTable) CancelAll() {
	t.failed = true
	for k := range t.tasks {
		if r := &t.tasks[k]; !r.status.terminal() {
			r.status = StatusCancelled
			t.terminal++
		}
	}
}

// Done reports whether every task reached a terminal state.
func (t *taskTable) Done() bool { return t.terminal == len(t.tasks) }

// Failed reports whether any task failed (or the job was cancelled).
func (t *taskTable) Failed() bool { return t.failed }

// Progress is a point-in-time census of a schedule's task states, the
// per-job figure status reporters (the portal's job API, cnviz) expose.
type Progress struct {
	Total     int `json:"total"`
	Pending   int `json:"pending"`
	Ready     int `json:"ready"`
	Running   int `json:"running"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`
	// Retried counts recovery and speculative re-placements across the
	// job's tasks (not a schedule state: a retried task is still counted
	// once under its current state).
	Retried int `json:"retried"`
	// TSOps counts completed tuple-space operations against the job's
	// coordination space (Out plus In/Rd/InP/RdP requests that reached a
	// definitive outcome; park retries are not counted).
	TSOps int `json:"ts_ops"`
}

// Terminal returns how many tasks reached a terminal state.
func (p Progress) Terminal() int { return p.Done + p.Failed + p.Cancelled }

// Add accumulates another census (used when aggregating across jobs).
func (p Progress) Add(o Progress) Progress {
	return Progress{
		Total:     p.Total + o.Total,
		Pending:   p.Pending + o.Pending,
		Ready:     p.Ready + o.Ready,
		Running:   p.Running + o.Running,
		Done:      p.Done + o.Done,
		Failed:    p.Failed + o.Failed,
		Cancelled: p.Cancelled + o.Cancelled,
		Retried:   p.Retried + o.Retried,
		TSOps:     p.TSOps + o.TSOps,
	}
}

// Progress returns the table's census; a job not yet started reports every
// task pending.
func (t *taskTable) Progress() Progress {
	p := Progress{Total: len(t.tasks)}
	for i := range t.tasks {
		p.Retried += t.tasks[i].retries
		switch t.tasks[i].status {
		case StatusPending:
			p.Pending++
		case StatusReady:
			p.Ready++
		case StatusRunning:
			p.Running++
		case StatusDone:
			p.Done++
		case StatusFailed:
			p.Failed++
		case StatusCancelled:
			p.Cancelled++
		}
	}
	return p
}
