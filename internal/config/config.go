// Package config is a CN deployment's one settings struct. Every knob a
// CNServer reads — its JobManager's, its TaskManager's, the tracer's — and
// the cluster-wide ones (node count, fabric, link model) are declared,
// documented and defaulted here, once; the cluster harness, the server and
// both managers take the same Config, and the cnserver and cnportal
// binaries bind their shared flags to it.
package config

import (
	"flag"
	"log/slog"
	"time"

	"cn/internal/task"
)

// Transport selects the fabric implementation.
type Transport int

// Fabric choices.
const (
	// TransportMem is the in-memory simulated network (default).
	TransportMem Transport = iota
	// TransportTCP uses real loopback sockets.
	TransportTCP
)

// Config parametrizes a simulated cluster and every CN server in it.
type Config struct {
	// Nodes is the number of CN servers to boot (0 = 4).
	Nodes int
	// NodePrefix names nodes prefix1..prefixN (default "node").
	NodePrefix string
	// MemoryMB is each node's task capacity (0 = 8000).
	MemoryMB int
	// MaxJobs caps jobs per JobManager (0 = 16).
	MaxJobs int
	// Transport selects the fabric (zero = TransportMem, the in-memory
	// fabric; TransportTCP uses real loopback sockets).
	Transport Transport
	// Latency, Jitter, Loss, Seed configure the in-memory fabric's link
	// model.
	Latency time.Duration
	Jitter  time.Duration
	Loss    float64
	Seed    int64
	// Registry resolves task classes on every node (nil = the global
	// registry populated by RegisterTask).
	Registry *task.Registry
	// PlacementTTL bounds each JobManager's cached TaskManager offers
	// (0 = 1s, the placement default TTL; negative disables offer caching,
	// so every placement performs a fresh multicast round, the
	// pre-directory behavior).
	PlacementTTL time.Duration
	// AssignTimeout bounds each JobManager's batch-assignment round trips
	// (0 = 5s).
	AssignTimeout time.Duration
	// TombstoneTTL bounds finished-job tombstone retention per JobManager
	// (0 = 5 minutes; negative keeps tombstones forever).
	TombstoneTTL time.Duration
	// HeartbeatInterval is each TaskManager's beat cadence and the basis
	// for failure-detection leases (0 = 500ms; negative disables
	// heartbeating and failure detection).
	HeartbeatInterval time.Duration
	// SuspectAfter / DeadAfter override the failure-detection lease
	// windows (0 = 3× / 6× the heartbeat interval). A suspect node is
	// excluded from new placements; a dead node's in-flight tasks are
	// re-placed on survivors.
	SuspectAfter time.Duration
	DeadAfter    time.Duration
	// MaxTaskRetries bounds how many times one task may be re-placed after
	// node deaths, failed dispatches, or straggler speculation
	// (0 = 2; negative disables recovery).
	MaxTaskRetries int
	// StragglerAfter enables speculative execution: a running task whose
	// progress has stalled this long gets a duplicate on another node,
	// first result wins (0 = disabled).
	StragglerAfter time.Duration
	// CheckpointEvery is each JobManager's cadence for replicating hosted
	// jobs' control state to its peers; when a manager dies, a surviving
	// peer adopts its checkpointed jobs and drives them to completion
	// (0 = the heartbeat interval; negative — or disabled heartbeating,
	// whatever this field says — disables checkpointing and failover, since
	// a manager's death is read off its node's heartbeat lease).
	CheckpointEvery time.Duration
	// Log receives structured server diagnostics (nil discards); printf-style
	// ones are its Debug records.
	Log *slog.Logger
	// TraceSample is each node's distributed-trace root sampling
	// probability (0 = the 1-in-8 default; negative disables tracing).
	TraceSample float64
}

// heartbeatInterval is the beat cadence a zero HeartbeatInterval selects;
// it also sizes the lease windows when heartbeating is disabled, so a
// monitor that never sweeps still classifies a stale lease sensibly.
const heartbeatInterval = 500 * time.Millisecond

// WithDefaults returns c with every zero knob replaced by the value its
// field documents. Negative "disabled" values are kept as they are, and a
// resolved Config resolves to itself.
func (c Config) WithDefaults() Config {
	if c.Nodes <= 0 {
		c.Nodes = 4
	}
	if c.NodePrefix == "" {
		c.NodePrefix = "node"
	}
	if c.MemoryMB <= 0 {
		c.MemoryMB = 8000
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 16
	}
	if c.Registry == nil {
		c.Registry = task.Global
	}
	if c.PlacementTTL == 0 {
		c.PlacementTTL = time.Second
	}
	if c.AssignTimeout <= 0 {
		c.AssignTimeout = 5 * time.Second
	}
	if c.TombstoneTTL == 0 {
		c.TombstoneTTL = 5 * time.Minute
	}
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = heartbeatInterval
	}
	basis := c.HeartbeatInterval
	if basis < 0 {
		basis = heartbeatInterval
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 3 * basis
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 6 * basis
	}
	if c.MaxTaskRetries == 0 {
		c.MaxTaskRetries = 2
	}
	// Adoption fires only on a node's lease, which only beats renew: with
	// heartbeating off, checkpointing is off too, whatever was asked.
	if c.CheckpointEvery == 0 || c.HeartbeatInterval < 0 {
		c.CheckpointEvery = c.HeartbeatInterval // negative when heartbeating is off
	}
	if c.TraceSample == 0 {
		c.TraceSample = 0.125
	}
	return c
}

// Flags registers the flags every CN binary that boots a cluster shares on
// fs, bound to c's fields. Each flag's default is the field's resolved
// value, so -h states the effective default.
func (c *Config) Flags(fs *flag.FlagSet) {
	d := c.WithDefaults()
	fs.IntVar(&c.Nodes, "nodes", d.Nodes, "number of CN server nodes")
	fs.DurationVar(&c.HeartbeatInterval, "heartbeat", d.HeartbeatInterval, "TaskManager heartbeat interval (negative disables failure detection)")
	fs.DurationVar(&c.AssignTimeout, "assign-timeout", d.AssignTimeout, "JobManager batch-assignment round-trip timeout")
	fs.IntVar(&c.MaxTaskRetries, "max-task-retries", d.MaxTaskRetries, "per-task re-placement budget after node failures (negative disables recovery)")
	fs.DurationVar(&c.StragglerAfter, "straggler-after", d.StragglerAfter, "speculatively re-run tasks whose progress stalls this long (0 = disabled)")
	fs.Float64Var(&c.TraceSample, "trace-sample", d.TraceSample, "distributed-trace root sampling probability (negative disables tracing)")
}
