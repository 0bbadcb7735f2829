// Package jobmgr implements the CN JobManager: "a conduit between the
// client CN application and the Job". It creates jobs on behalf of
// clients, solicits TaskManagers for task placement, uploads archives,
// starts tasks in dependency order, routes user messages between tasks and
// the client, and collates terminal job status.
package jobmgr

import (
	"fmt"
	"sort"

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

// Schedule tracks dependency-ordered execution of a job's tasks. It is not
// concurrency-safe; the owning JobManager serializes access.
type Schedule struct {
	unmet      map[string]map[string]bool // task -> unmet dependency set
	dependents map[string][]string        // task -> tasks depending on it
	state      map[string]Status
	terminal   int
	failed     bool
}

// NewSchedule builds the scheduling state for a set of task specs. All
// dependencies must reference tasks in the set and the graph must be
// acyclic (callers validate this via cnx/core; NewSchedule re-checks the
// reference integrity cheaply).
func NewSchedule(specs []*task.Spec) (*Schedule, error) {
	s := &Schedule{
		unmet:      make(map[string]map[string]bool, len(specs)),
		dependents: make(map[string][]string),
		state:      make(map[string]Status, len(specs)),
	}
	byName := make(map[string]bool, len(specs))
	for _, sp := range specs {
		if byName[sp.Name] {
			return nil, fmt.Errorf("jobmgr: duplicate task %q", sp.Name)
		}
		byName[sp.Name] = true
	}
	for _, sp := range specs {
		unmet := make(map[string]bool, len(sp.DependsOn))
		for _, d := range sp.DependsOn {
			if !byName[d] {
				return nil, fmt.Errorf("jobmgr: task %q depends on unknown task %q", sp.Name, d)
			}
			unmet[d] = true
			s.dependents[d] = append(s.dependents[d], sp.Name)
		}
		s.unmet[sp.Name] = unmet
		if len(unmet) == 0 {
			s.state[sp.Name] = StatusReady
		} else {
			s.state[sp.Name] = StatusPending
		}
	}
	return s, nil
}

// RestoreSchedule rebuilds a schedule from a checkpointed status census:
// the dependency graph is derived from the specs, the recorded statuses
// are overlaid, and the derived state (terminal count, failure flag, unmet
// sets, ready promotion) is recomputed. Tasks absent from statuses keep
// their NewSchedule state — the checkpoint predates their start.
func RestoreSchedule(specs []*task.Spec, statuses map[string]Status) (*Schedule, error) {
	s, err := NewSchedule(specs)
	if err != nil {
		return nil, err
	}
	for name, st := range statuses {
		if _, ok := s.state[name]; !ok {
			return nil, fmt.Errorf("jobmgr: restore: status for unknown task %q", name)
		}
		s.state[name] = st
	}
	s.terminal = 0
	s.failed = false
	for name, st := range s.state {
		switch st {
		case StatusDone:
			s.terminal++
			for _, dep := range s.dependents[name] {
				delete(s.unmet[dep], name)
			}
		case StatusFailed, StatusCancelled:
			s.terminal++
			s.failed = true
		}
	}
	for name, st := range s.state {
		if st == StatusPending && len(s.unmet[name]) == 0 {
			s.state[name] = StatusReady
		}
	}
	return s, nil
}

// Status returns a task's state.
func (s *Schedule) Status(name string) Status { return s.state[name] }

// Ready returns the sorted names of tasks that may start now.
func (s *Schedule) Ready() []string {
	var out []string
	for n, st := range s.state {
		if st == StatusReady {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// MarkRunning transitions a ready task to running.
func (s *Schedule) MarkRunning(name string) error {
	if s.state[name] != StatusReady {
		return fmt.Errorf("jobmgr: task %q is %s, not ready", name, s.state[name])
	}
	s.state[name] = StatusRunning
	return nil
}

// Complete records successful termination and returns the sorted names of
// tasks that became ready as a result.
func (s *Schedule) Complete(name string) ([]string, error) {
	if st := s.state[name]; st != StatusRunning {
		return nil, fmt.Errorf("jobmgr: complete %q: state %s", name, st)
	}
	s.state[name] = StatusDone
	s.terminal++
	var newly []string
	for _, dep := range s.dependents[name] {
		if s.state[dep] != StatusPending {
			continue
		}
		delete(s.unmet[dep], name)
		if len(s.unmet[dep]) == 0 {
			s.state[dep] = StatusReady
			newly = append(newly, dep)
		}
	}
	sort.Strings(newly)
	return newly, nil
}

// Rerun moves a done task back to running so it can execute again — the
// recovery transition for a completed producer whose only data-plane output
// copy died with its node. Dependent bookkeeping needs no rewind: the first
// completion already credited the dependents, and Complete's pending-only
// guard plus idempotent unmet deletion make the re-completion's credit pass
// a no-op, so dependents are never double-released.
func (s *Schedule) Rerun(name string) bool {
	if s.state[name] != StatusDone {
		return false
	}
	s.state[name] = StatusRunning
	s.terminal--
	return true
}

// FailAny records failed termination for a task in any non-terminal state
// — the recovery engine's transition for tasks whose assignment was lost
// and could not be re-placed (a pending orphan never reached running, but
// its loss is just as fatal to the job). It reports whether a transition
// happened; already-terminal tasks are left untouched.
func (s *Schedule) FailAny(name string) bool {
	st, ok := s.state[name]
	if !ok {
		return false
	}
	switch st {
	case StatusPending, StatusReady, StatusRunning:
	default:
		return false
	}
	s.state[name] = StatusFailed
	s.terminal++
	s.failed = true
	for n, other := range s.state {
		switch other {
		case StatusPending, StatusReady:
			s.state[n] = StatusCancelled
			s.terminal++
		}
	}
	return true
}

// CancelAll cancels every non-terminal task (used for client-initiated
// job cancellation). Running tasks stay running until their TaskManagers
// observe the cancellation; they are counted terminal here.
func (s *Schedule) CancelAll() {
	s.failed = true
	for n, st := range s.state {
		switch st {
		case StatusPending, StatusReady, StatusRunning:
			s.state[n] = StatusCancelled
			s.terminal++
		}
	}
}

// Done reports whether every task reached a terminal state.
func (s *Schedule) Done() bool { return s.terminal == len(s.state) }

// Failed reports whether any task failed (or the job was cancelled).
func (s *Schedule) Failed() bool { return s.failed }

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

// Progress returns the schedule's census.
func (s *Schedule) Progress() Progress {
	p := Progress{Total: len(s.state)}
	for _, st := range s.state {
		switch st {
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
