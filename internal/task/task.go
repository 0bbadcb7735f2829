// Package task defines the CN Task abstraction: the unit of work the user
// wants to perform ("A Task is defined to be a unit of work that the user
// wants to perform"), its execution context, typed parameters, run models,
// and the class registry that stands in for Java's dynamic class loading.
package task

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"cn/internal/tuplespace"
)

// Task is the interface a CN task class implements. In the paper a task is
// "packaged as a self-sufficient JAR file that has a class that conforms to
// the Task interface defined by CN API"; here the class is a Go type
// registered under its class name (see Register) and shipped inside an
// archive whose manifest names the class.
type Task interface {
	// Run executes the task to completion. The context provides the task's
	// parameters and its communication primitives. A nil return marks the
	// task TASK_COMPLETED; an error marks it TASK_FAILED.
	Run(ctx Context) error
}

// Func adapts a plain function to the Task interface.
type Func func(ctx Context) error

// Run calls f.
func (f Func) Run(ctx Context) error { return f(ctx) }

// Context is the view a running task has of the CN system. It mirrors the
// capabilities the paper's CN API exposes to tasks: identity, parameters,
// and message-based coordination with sibling tasks and the client.
//
// Bytes cross the boundary by copy, wherever the tasks run — on the
// JobManager's node or not. Send, SendClient, Broadcast, Out and Put copy
// the payload or tuple before they return, so the task may reuse its buffer
// at once. The payload Recv returns and the []byte fields of a tuple In,
// Rd, InP or RdP returns belong to this call alone: no sibling, and not the
// space, sees a write to them. Get is the one exception (see Get).
type Context interface {
	// TaskName returns the task's name inside its job (e.g. "tctask2").
	TaskName() string
	// JobID returns the job the task belongs to.
	JobID() string
	// NodeName returns the cluster node executing the task.
	NodeName() string
	// Params returns the task's ordered parameter list (the descriptor's
	// <param> elements / tagged values ptypeN, pvalueN).
	Params() []Param
	// Send delivers a user-defined message payload to a sibling task.
	Send(toTask string, payload []byte) error
	// SendClient delivers a user-defined message payload to the client.
	SendClient(payload []byte) error
	// Broadcast delivers payload to every other task in the job.
	Broadcast(payload []byte) error
	// Recv blocks until the next user message addressed to this task
	// arrives, returning its payload and the sender task name. Messages
	// from one sender arrive in the order they were sent, and none is
	// dropped while the task runs, however far behind it reads.
	Recv() (from string, payload []byte, err error)

	// The tuple-space operations reach the job's coordination space,
	// hosted by the job's JobManager and shared by every task in the job
	// and the client ("CN also supports communication via tuple spaces").
	// Tuples hold scalar fields (string, int, int64, float64, bool,
	// []byte); templates additionally accept the tuplespace.Wildcard and
	// tuplespace.TypeOf placeholders. The space closes when the job
	// reaches a terminal state, failing blocked and future operations
	// with tuplespace.ErrClosed. A cancelled or stopped task's operations
	// fail with ErrStopped without sending anything.

	// The data-plane operations move bulk task output directly between
	// TaskManagers: Put publishes this task's output under a job-unique
	// key (the bytes stay on the producing node, content-addressed; only
	// the location travels to the JobManager, and payloads of at most
	// protocol.DataInlineMax ride along inline), and Get resolves a key
	// and pulls its bytes straight from the producing node. Use Put/Get
	// for shuffle-sized data and Send/Recv for small control messages.

	// Put publishes payload under key for the job's consumers. Keys are
	// job-scoped; re-putting a key overwrites its advert.
	Put(key string, payload []byte) error
	// Get resolves key and returns its payload, blocking until the
	// producer publishes, the job reaches a terminal state, or ctx is
	// done. The returned slice is the node's blob cache's own buffer, lent
	// to the task: it is valid until the task's Run returns — after that
	// the buffer may be handed to another job's Put or Get and
	// overwritten — and must never be mutated. Copy what outlives the task.
	Get(ctx context.Context, key string) ([]byte, error)

	// Out stores a tuple in the job's space. It is one-way: the tuple is
	// validated here and handed to the fabric, and nil means queued. The
	// JobManager applies it before anything this task sends it afterwards
	// — a later tuple-space operation, a Put advert, the task's completion
	// — so results Out'd just before returning are in the space when the
	// job ends. One Out in protocol.TSOutWindow is acknowledged instead,
	// which is where a closed space or a dead manager surfaces.
	Out(t tuplespace.Tuple) error
	// Flush is one acknowledged round trip that stores nothing: when it
	// returns nil every earlier Out of this task is in the space;
	// tuplespace.ErrClosed when the space closed.
	Flush() error
	// In removes and returns a tuple matching tpl, blocking until one is
	// available, the space closes, or the hosting JobManager stops
	// answering (a bounded per-attempt deadline fails the call rather
	// than hanging the task).
	In(tpl tuplespace.Template) (tuplespace.Tuple, error)
	// Rd is In without removal.
	Rd(tpl tuplespace.Template) (tuplespace.Tuple, error)
	// InP removes and returns a matching tuple without blocking;
	// tuplespace.ErrNoMatch when none is stored.
	InP(tpl tuplespace.Template) (tuplespace.Tuple, error)
	// RdP is InP without removal.
	RdP(tpl tuplespace.Template) (tuplespace.Tuple, error)

	// Logf records a line in the job log.
	Logf(format string, args ...any)
	// Done reports whether the job has been cancelled; long-running tasks
	// should poll it.
	Done() bool
}

// ErrStopped is returned from Context.Recv when the task's mailbox is closed
// because the job is shutting down.
var ErrStopped = errors.New("task: stopped")

// RunModel selects how the TaskManager executes a task. The paper's
// descriptors carry e.g. <runmodel>RUN_AS_THREAD_IN_TM</runmodel>.
type RunModel int

const (
	// RunAsThreadInTM executes the task on a goroutine inside the
	// TaskManager process (the paper's RUN_AS_THREAD_IN_TM; threads map to
	// goroutines in Go).
	RunAsThreadInTM RunModel = iota
	// RunAsProcess executes the task with simulated process isolation: a
	// dedicated goroutine whose panics are confined and whose memory grant
	// is accounted separately.
	RunAsProcess
	// RunLocal executes the task inside the client process itself, used by
	// the quickstart path and unit tests.
	RunLocal
)

var runModelNames = map[RunModel]string{
	RunAsThreadInTM: "RUN_AS_THREAD_IN_TM",
	RunAsProcess:    "RUN_AS_PROCESS",
	RunLocal:        "RUN_LOCAL",
}

// String returns the descriptor spelling of the run model.
func (r RunModel) String() string {
	if s, ok := runModelNames[r]; ok {
		return s
	}
	return fmt.Sprintf("RunModel(%d)", int(r))
}

// ParseRunModel parses a descriptor run-model string. It accepts both the
// canonical underscore form and a tolerant spaced form ("RUN AS THREAD IN
// TM" appears in the paper's Figure 4).
func ParseRunModel(s string) (RunModel, error) {
	norm := strings.ToUpper(strings.ReplaceAll(strings.TrimSpace(s), " ", "_"))
	for rm, name := range runModelNames {
		if norm == name {
			return rm, nil
		}
	}
	return 0, fmt.Errorf("task: unknown run model %q", s)
}

// ParamType enumerates the parameter types CN descriptors support. The
// paper's examples use java.lang.Integer and String; we add the small set a
// composition language needs.
type ParamType string

// Supported parameter types.
const (
	TypeString  ParamType = "String"
	TypeInteger ParamType = "Integer"
	TypeLong    ParamType = "Long"
	TypeDouble  ParamType = "Double"
	TypeBoolean ParamType = "Boolean"
)

// NormalizeParamType maps Java-style fully-qualified names (e.g.
// "java.lang.Integer") and short names onto a canonical ParamType.
func NormalizeParamType(s string) (ParamType, error) {
	short := s
	if i := strings.LastIndex(s, "."); i >= 0 {
		short = s[i+1:]
	}
	switch ParamType(short) {
	case TypeString, TypeInteger, TypeLong, TypeDouble, TypeBoolean:
		return ParamType(short), nil
	}
	switch strings.ToLower(short) {
	case "int":
		return TypeInteger, nil
	case "float", "float64":
		return TypeDouble, nil
	case "bool":
		return TypeBoolean, nil
	}
	return "", fmt.Errorf("task: unsupported parameter type %q", s)
}

// Param is one typed task parameter, corresponding to a descriptor
// <param type="T">value</param> element or a ptypeN/pvalueN tagged-value
// pair in the UML model.
type Param struct {
	Type  ParamType
	Value string
}

// NewParam builds a Param after normalizing the type name.
func NewParam(typ, value string) (Param, error) {
	pt, err := NormalizeParamType(typ)
	if err != nil {
		return Param{}, err
	}
	return Param{Type: pt, Value: value}, nil
}

// String returns the parameter value verbatim.
func (p Param) String() string { return p.Value }

// Int parses the parameter as an integer; valid for Integer and Long.
func (p Param) Int() (int, error) {
	switch p.Type {
	case TypeInteger, TypeLong:
		n, err := strconv.Atoi(p.Value)
		if err != nil {
			return 0, fmt.Errorf("task: param %q as int: %w", p.Value, err)
		}
		return n, nil
	}
	return 0, fmt.Errorf("task: param type %s is not integral", p.Type)
}

// Float parses the parameter as a float64; valid for Double, Integer, Long.
func (p Param) Float() (float64, error) {
	switch p.Type {
	case TypeDouble, TypeInteger, TypeLong:
		f, err := strconv.ParseFloat(p.Value, 64)
		if err != nil {
			return 0, fmt.Errorf("task: param %q as float: %w", p.Value, err)
		}
		return f, nil
	}
	return 0, fmt.Errorf("task: param type %s is not numeric", p.Type)
}

// Bool parses the parameter as a boolean; valid for Boolean.
func (p Param) Bool() (bool, error) {
	if p.Type != TypeBoolean {
		return false, fmt.Errorf("task: param type %s is not boolean", p.Type)
	}
	b, err := strconv.ParseBool(strings.ToLower(p.Value))
	if err != nil {
		return false, fmt.Errorf("task: param %q as bool: %w", p.Value, err)
	}
	return b, nil
}

// IntParam is a convenience accessor: the i'th parameter of ps as an int.
func IntParam(ps []Param, i int) (int, error) {
	if i < 0 || i >= len(ps) {
		return 0, fmt.Errorf("task: parameter index %d out of range (have %d)", i, len(ps))
	}
	return ps[i].Int()
}

// StringParam is a convenience accessor: the i'th parameter of ps verbatim.
func StringParam(ps []Param, i int) (string, error) {
	if i < 0 || i >= len(ps) {
		return "", fmt.Errorf("task: parameter index %d out of range (have %d)", i, len(ps))
	}
	return ps[i].Value, nil
}

// Requirements captures a task's resource demands, mirroring the
// descriptor's <task-req> element.
type Requirements struct {
	// MemoryMB is the memory grant the task needs on its TaskManager.
	MemoryMB int
	// RunModel selects the execution mode.
	RunModel RunModel
}

// DefaultRequirements matches the paper's examples: 1000 MB, thread-in-TM.
func DefaultRequirements() Requirements {
	return Requirements{MemoryMB: 1000, RunModel: RunAsThreadInTM}
}

// Spec fully describes one task instance inside a job: the unit the CNX
// descriptor's <task> element declares and the JobManager places.
type Spec struct {
	// Name is the task's unique name inside the job (e.g. "tctask2").
	Name string
	// Archive is the archive file name carrying the class (e.g. "tctask.jar").
	Archive string
	// Class is the registered class name
	// (e.g. "org.jhpc.cn2.trnsclsrtask.TCTask").
	Class string
	// DependsOn lists task names that must complete before this task starts.
	DependsOn []string
	// Params is the ordered parameter list passed to the task.
	Params []Param
	// Req is the resource requirement block.
	Req Requirements
}

// Validate checks structural invariants of a single spec (name and class
// present, no self-dependency, parsable params).
func (s *Spec) Validate() error {
	if s.Name == "" {
		return errors.New("task: spec missing name")
	}
	if s.Class == "" {
		return fmt.Errorf("task: spec %q missing class", s.Name)
	}
	for _, d := range s.DependsOn {
		if d == s.Name {
			return fmt.Errorf("task: spec %q depends on itself", s.Name)
		}
		if d == "" {
			return fmt.Errorf("task: spec %q has empty dependency", s.Name)
		}
	}
	if s.Req.MemoryMB < 0 {
		return fmt.Errorf("task: spec %q has negative memory requirement", s.Name)
	}
	return nil
}

// Clone returns a deep copy of the spec.
func (s *Spec) Clone() *Spec {
	c := *s
	c.DependsOn = append([]string(nil), s.DependsOn...)
	c.Params = append([]Param(nil), s.Params...)
	return &c
}
