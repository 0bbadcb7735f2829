// Package cn is the public API of the Computational Neighborhood (CN), a
// Go reproduction of "A Model-Driven Approach to Job/Task Composition in
// Cluster Computing" (Mehta, Kanitkar, Läufer, Thiruvathukal — IPDPS 2007).
//
// CN is "a framework to define and execute tasks in a parallel program
// transparently on the various nodes in the cluster and collate the final
// results". The package exposes three layers:
//
//   - The cluster runtime: StartCluster boots CN servers (JobManager +
//     TaskManager per node, discovered over multicast); Connect returns
//     the client-side CN API factory (CreateJob / CreateTask / Start /
//     GetMessage / SendMessage).
//
//   - The composition model: activity graphs (NewActivity) with action
//     states, fork/join pseudostates, tagged values and dynamic
//     invocation, mirroring UML activity diagrams.
//
//   - The model-driven pipeline: ParseXMI / WriteXMI, ModelToCNX /
//     CNXToModel, ParseCNX, XMI2CNX, and GenerateClient (CNX2Go), which
//     turn a UML model exported as XMI into a CNX descriptor and then
//     into a runnable Go client program.
//
// The quickstart in examples/quickstart shows the five-line path from a
// descriptor to results.
package cn

import (
	"context"
	"fmt"
	"io"

	"cn/internal/api"
	"cn/internal/archive"
	"cn/internal/cluster"
	"cn/internal/cnx"
	"cn/internal/codegen"
	"cn/internal/core"
	"cn/internal/dataplane"
	"cn/internal/discovery"
	"cn/internal/dot"
	"cn/internal/jobmgr"
	"cn/internal/placement"
	"cn/internal/protocol"
	"cn/internal/task"
	"cn/internal/trace"
	"cn/internal/transform"
	"cn/internal/transport"
	"cn/internal/tuplespace"
	"cn/internal/xmi"
)

// Task is the interface a CN task class implements (the unit of work).
type Task = task.Task

// TaskFunc adapts a function to the Task interface.
type TaskFunc = task.Func

// TaskContext is the view a running task has of the CN system.
type TaskContext = task.Context

// TaskSpec describes one task instance inside a job.
type TaskSpec = task.Spec

// Param is one typed task parameter.
type Param = task.Param

// Requirements is a task's resource demand block.
type Requirements = task.Requirements

// RunModel selects how a TaskManager executes a task.
type RunModel = task.RunModel

// Registry maps task class names to factories (the class-loader stand-in).
type Registry = task.Registry

// Archive is a task archive (the JAR-file stand-in).
type Archive = archive.Archive

// JobRequirements are the client's demands on a hosting JobManager.
type JobRequirements = protocol.JobRequirements

// Client is an initialized CN API handle.
type Client = api.Client

// Job is a handle on one CN job.
type Job = api.Job

// Result is a job's terminal status.
type Result = api.Result

// Event is a task lifecycle notification.
type Event = api.Event

// Space is the client-side handle on a job's coordination tuple space
// (Job.Space); tasks reach the same space through their TaskContext's
// Out/In/Rd/InP/RdP. Out is one-way on both — it returns once the tuple is
// queued and is applied before anything the same caller sends afterwards —
// and Flush is the acknowledged barrier on demand (docs/API.md, "The
// contract of a one-way Out").
type Space = api.Space

// Tuple is an ordered sequence of scalar fields stored in a job's tuple
// space.
type Tuple = tuplespace.Tuple

// Template is a tuple pattern: concrete values, Wildcard, or TypeOf
// placeholders.
type Template = tuplespace.Template

// Wildcard matches any field value of any type in a template.
var Wildcard = tuplespace.Wildcard

// ErrNoMatch is returned by the non-blocking tuple-space probes (InP/RdP)
// when no stored tuple matches the template.
var ErrNoMatch = tuplespace.ErrNoMatch

// ErrSpaceClosed is returned by tuple-space operations once the job's
// space closed (the job reached a terminal state).
var ErrSpaceClosed = tuplespace.ErrClosed

// TypeOf returns a template placeholder matching any field with the same
// dynamic type as sample (e.g. TypeOf(0) matches any int).
func TypeOf(sample any) any { return tuplespace.TypeOf(sample) }

// ClientOptions configures Connect.
type ClientOptions = api.Options

// Policy selects among JobManager offers during discovery.
type Policy = discovery.Policy

// ActivityGraph is a UML activity graph modeling one CN job.
type ActivityGraph = core.Graph

// ActivityBuilder is the fluent activity-graph construction API.
type ActivityBuilder = core.Builder

// TaggedValues carries UML tagged values on an action state.
type TaggedValues = core.TaggedValues

// ClientModel is a client composed of one or more job activity graphs.
type ClientModel = core.Client

// ArgProvider supplies run-time argument lists for dynamic invocation.
type ArgProvider = core.ArgProvider

// CNXDocument is a parsed CNX client descriptor.
type CNXDocument = cnx.Document

// XMIDocument is a parsed XMI (UML model interchange) file.
type XMIDocument = xmi.Document

// TransformOptions configures the model-to-CNX lowering.
type TransformOptions = transform.Options

// Run models.
const (
	RunAsThreadInTM = task.RunAsThreadInTM
	RunAsProcess    = task.RunAsProcess
	RunLocal        = task.RunLocal
)

// Parameter types.
const (
	TypeString  = task.TypeString
	TypeInteger = task.TypeInteger
	TypeLong    = task.TypeLong
	TypeDouble  = task.TypeDouble
	TypeBoolean = task.TypeBoolean
)

// Well-known tagged-value keys (paper Figure 4).
const (
	TagJar      = core.TagJar
	TagClass    = core.TagClass
	TagMemory   = core.TagMemory
	TagRunModel = core.TagRunModel
)

// RegisterTask binds a task class in the process-wide registry, the way a
// Java deployment would place a JAR on every node's classpath.
func RegisterTask(class string, factory func() Task) error {
	return task.Register(class, factory)
}

// NewRegistry returns an isolated class registry (used by tests and
// embedded deployments that must not touch process-global state).
func NewRegistry() *Registry { return task.NewRegistry() }

// NewArchive starts building a task archive with the given file name and
// task class.
func NewArchive(name, taskClass string) *archive.Builder {
	return archive.NewBuilder(name, taskClass)
}

// ClusterOptions configures StartCluster. It is the one deployment config
// the cluster harness, every CN server and both managers read: each knob is
// declared, documented and defaulted there, once.
type ClusterOptions = cluster.Config

// Transport selects the fabric a cluster runs on (ClusterOptions.Transport).
type Transport = cluster.Transport

// Fabric choices.
const (
	// TransportMem is the in-memory simulated network (the default).
	TransportMem = cluster.TransportMem
	// TransportTCP uses real loopback sockets.
	TransportTCP = cluster.TransportTCP
)

// Cluster is a running CN deployment.
type Cluster struct {
	inner *cluster.Cluster
}

// StartCluster boots a simulated CN cluster: N nodes, each running a
// CNServer (JobManager + TaskManager) joined to the discovery multicast
// groups.
func StartCluster(opts ClusterOptions) (*Cluster, error) {
	inner, err := cluster.Start(opts)
	if err != nil {
		return nil, fmt.Errorf("cn: %w", err)
	}
	return &Cluster{inner: inner}, nil
}

// Nodes returns the live node names.
func (c *Cluster) Nodes() []string { return c.inner.Nodes() }

// KillNode abruptly removes a node (failure injection).
func (c *Cluster) KillNode(node string) error { return c.inner.KillNode(node) }

// Network exposes the cluster fabric for advanced clients.
func (c *Cluster) Network() transport.Network { return c.inner.Network() }

// PlacementStats aggregates every JobManager's resource-directory counters
// (solicitation rounds, cache hits, invalidations).
func (c *Cluster) PlacementStats() placement.Stats { return c.inner.PlacementStats() }

// JobProgress is a hosted job's schedule census as reported by its
// JobManager (task states, retries, tuple-space op counts).
type JobProgress = jobmgr.Progress

// JobProgress reports a hosted job's census from its hosting JobManager;
// ok is false when the node is dead or the job unknown.
func (c *Cluster) JobProgress(jmNode, jobID string) (JobProgress, bool) {
	return c.inner.JobProgress(jmNode, jobID)
}

// BlobTransfers counts distinct archive blobs transferred to TaskManagers
// across the cluster — with content addressing, at most one per digest per
// node regardless of how many tasks share the archive.
func (c *Cluster) BlobTransfers() int64 { return c.inner.BlobTransfers() }

// DataplaneBytes sums the TaskManagers' direct TM→TM data-plane transfer
// counters: payload bytes served to peer nodes and pulled from them. These
// are the shuffle bytes that bypass the JobManagers entirely.
func (c *Cluster) DataplaneBytes() (served, fetched int64) {
	return c.inner.DataplaneBytes()
}

// TraceSpan is one recorded interval of a job's distributed trace.
type TraceSpan = trace.Span

// NewTracer builds a sampling tracer for client-side roots; pass it in
// ClientOptions so job submissions open a client-born "job.submit" span
// (sample 0 = the 1-in-8 default; negative never self-samples).
func NewTracer(node string, sample float64) *trace.Tracer {
	return trace.New(trace.Config{Node: node, Sample: sample})
}

// JobTrace returns the assembled span timeline for a hosted job from
// whichever live JobManager holds it (the adopter, after a failover).
func (c *Cluster) JobTrace(jobID string) ([]TraceSpan, bool) {
	return c.inner.JobTrace(jobID)
}

// DataplaneStats is the cluster-wide data-plane broker census.
type DataplaneStats = dataplane.StatsSnapshot

// DataplaneStats sums every JobManager's data-plane broker counters
// (adverts, resolves, parks, and bytes served from inline copies).
func (c *Cluster) DataplaneStats() DataplaneStats {
	return c.inner.DataplaneStats()
}

// Close shuts the cluster down.
func (c *Cluster) Close() { c.inner.Stop() }

// Connect initializes the CN API against a cluster ("Initialize CN API
// (using the factory)").
func Connect(c *Cluster, opts ClientOptions) (*Client, error) {
	cl, err := api.Initialize(c.inner.Network(), opts)
	if err != nil {
		return nil, fmt.Errorf("cn: %w", err)
	}
	return cl, nil
}

// NewActivity starts building an activity graph (one job) with the given
// name — the programmatic equivalent of drawing the UML activity diagram.
func NewActivity(name string) *ActivityBuilder { return core.NewBuilder(name) }

// Tags builds a TaggedValues map from alternating key/value strings.
func Tags(kv ...string) TaggedValues { return core.Tags(kv...) }

// TaskTags builds the standard tag set for a CN task.
func TaskTags(jar, class string, memoryMB int, runModel string) TaggedValues {
	return core.TaskTags(jar, class, memoryMB, runModel)
}

// NewClientModel creates a client model with no jobs.
func NewClientModel(name string) *ClientModel { return core.NewClient(name) }

// FixedArgs returns an ArgProvider producing n index-parameterized
// invocations for dynamic action states.
func FixedArgs(n int) ArgProvider { return core.FixedArgs(n) }

// ParseCNX parses a CNX client descriptor.
func ParseCNX(r io.Reader) (*CNXDocument, error) { return cnx.Parse(r) }

// ParseXMI parses an XMI document.
func ParseXMI(r io.Reader) (*XMIDocument, error) { return xmi.Parse(r) }

// ModelToXMI serializes a client model as an XMI document (what a UML tool
// would export).
func ModelToXMI(m *ClientModel) (*XMIDocument, error) { return transform.ToXMI(m) }

// XMIToModel lifts a parsed XMI document into a client model.
func XMIToModel(d *XMIDocument) (*ClientModel, error) { return transform.FromXMI(d) }

// ModelToCNX lowers a client model to a CNX descriptor (dynamic states are
// expanded through opts.Args).
func ModelToCNX(m *ClientModel, opts TransformOptions) (*CNXDocument, error) {
	return transform.ModelToCNX(m, opts)
}

// CNXToModel lifts a CNX descriptor back into a client model.
func CNXToModel(d *CNXDocument) (*ClientModel, error) { return transform.CNXToModel(d) }

// XMI2CNX runs the paper's end-to-end transformation: XMI in, CNX out.
func XMI2CNX(r io.Reader, w io.Writer, opts TransformOptions) error {
	return transform.XMI2CNX(r, w, opts)
}

// GenerateOptions configures GenerateClient.
type GenerateOptions = codegen.Options

// GenerateClient emits a complete Go client program for a CNX descriptor —
// the paper's CNX2Java step, targeting Go ("CNX2Go").
func GenerateClient(doc *CNXDocument, opts GenerateOptions) ([]byte, error) {
	return codegen.Generate(doc, opts)
}

// ActivityDOT renders an activity graph as Graphviz DOT (the paper's
// Figures 3 and 5 as machine-readable diagrams).
func ActivityDOT(g *ActivityGraph) string { return dot.Activity(g) }

// JobDOT renders a CNX job's dependency DAG as Graphviz DOT.
func JobDOT(j *cnx.Job) string { return dot.Job(j) }

// RunDescriptor executes every job of a CNX descriptor on the cluster the
// client is connected to, in declaration order, and returns the per-job
// results keyed by job name. Archives maps archive file names to built
// archives; tasks whose archive name is absent run against pre-deployed
// classes.
func RunDescriptor(ctx context.Context, client *Client, doc *CNXDocument, archives map[string]*Archive) (map[string]*Result, error) {
	if err := doc.Validate(); err != nil {
		return nil, fmt.Errorf("cn: run descriptor: %w", err)
	}
	results := make(map[string]*Result, len(doc.Client.Jobs))
	for ji := range doc.Client.Jobs {
		job := &doc.Client.Jobs[ji]
		specs, err := job.Specs()
		if err != nil {
			return nil, fmt.Errorf("cn: run descriptor: %w", err)
		}
		res, err := RunJob(ctx, client, job.Name, specs, archives)
		if err != nil {
			return nil, fmt.Errorf("cn: run descriptor: job %q: %w", job.Name, err)
		}
		results[job.Name] = res
	}
	return results, nil
}

// RunJob creates a job from specs, starts it, and waits for termination.
// The whole task set and the start ride one Submit, so admission is one
// round trip, placement a single solicitation round, and each archive
// travels once per node. Only the result leaves this call, so the handle is
// released with it. A refused Submit leaves nothing on the JobManager.
func RunJob(ctx context.Context, client *Client, name string, specs []*TaskSpec, archives map[string]*Archive) (*Result, error) {
	j, err := client.CreateJob(name, JobRequirements{})
	if err != nil {
		return nil, err
	}
	defer j.Release()
	if _, err := j.Submit(specs, archives); err != nil {
		return nil, err
	}
	return j.Wait(ctx)
}

// RunModelOnCluster lowers a client model to CNX and executes it — the
// one-call version of the paper's pipeline for models already in memory.
func RunModelOnCluster(ctx context.Context, client *Client, m *ClientModel, opts TransformOptions, archives map[string]*Archive) (map[string]*Result, error) {
	doc, err := ModelToCNX(m, opts)
	if err != nil {
		return nil, err
	}
	return RunDescriptor(ctx, client, doc, archives)
}
