// Package cluster provides the simulated CN deployment harness: it boots N
// CN servers on a shared fabric — the stand-in for the paper's "CN Servers
// run on the various nodes of the cluster" deployment — and offers failure
// injection and teardown for tests and benchmarks.
package cluster

import (
	"fmt"
	"log/slog"
	"time"

	"cn/internal/dataplane"
	"cn/internal/jobmgr"
	"cn/internal/metrics"
	"cn/internal/placement"
	"cn/internal/server"
	"cn/internal/task"
	"cn/internal/trace"
	"cn/internal/transport"
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

// Config parametrizes a simulated cluster.
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
	// (0 = placement default TTL; negative disables offer caching, so every
	// placement performs a fresh multicast round, the pre-directory
	// behavior).
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
	// (0 = the heartbeat interval; negative — or disabled heartbeating —
	// disables checkpointing and failover).
	CheckpointEvery time.Duration
	// Log receives structured server diagnostics (nil discards); printf-style
	// ones are its Debug records.
	Log *slog.Logger
	// TraceSample is each node's distributed-trace root sampling
	// probability (0 = the 1-in-8 default; negative disables tracing).
	TraceSample float64
}

// Cluster is a set of running CN servers on one fabric.
type Cluster struct {
	cfg     Config
	network transport.Network
	servers map[string]*server.Server
	order   []string
	reg     *metrics.Registry
}

// Start boots the cluster.
func Start(cfg Config) (*Cluster, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 4
	}
	if cfg.NodePrefix == "" {
		cfg.NodePrefix = "node"
	}
	var net transport.Network
	switch cfg.Transport {
	case TransportMem:
		net = transport.NewMemNetwork(transport.MemConfig{
			Latency: cfg.Latency,
			Jitter:  cfg.Jitter,
			Loss:    cfg.Loss,
			Seed:    cfg.Seed,
		})
	case TransportTCP:
		tn := transport.NewTCPNetwork()
		tn.SetLogger(cfg.Log)
		net = tn
	default:
		return nil, fmt.Errorf("cluster: unknown transport %d", cfg.Transport)
	}
	c := &Cluster{
		cfg:     cfg,
		network: net,
		servers: make(map[string]*server.Server, cfg.Nodes),
		reg:     metrics.NewRegistry(),
	}
	for i := 1; i <= cfg.Nodes; i++ {
		name := fmt.Sprintf("%s%d", cfg.NodePrefix, i)
		srv, err := server.Start(net, server.Config{
			Node:              name,
			MemoryMB:          cfg.MemoryMB,
			MaxJobs:           cfg.MaxJobs,
			Registry:          cfg.Registry,
			PlacementTTL:      cfg.PlacementTTL,
			AssignTimeout:     cfg.AssignTimeout,
			TombstoneTTL:      cfg.TombstoneTTL,
			HeartbeatInterval: cfg.HeartbeatInterval,
			SuspectAfter:      cfg.SuspectAfter,
			DeadAfter:         cfg.DeadAfter,
			MaxTaskRetries:    cfg.MaxTaskRetries,
			StragglerAfter:    cfg.StragglerAfter,
			CheckpointEvery:   cfg.CheckpointEvery,
			Log:               cfg.Log,
			TraceSample:       cfg.TraceSample,
		})
		if err != nil {
			c.Stop()
			return nil, fmt.Errorf("cluster: start %s: %w", name, err)
		}
		c.servers[name] = srv
		c.order = append(c.order, name)
	}
	return c, nil
}

// Network exposes the fabric so clients can attach.
func (c *Cluster) Network() transport.Network { return c.network }

// Metrics exposes the harness metric registry.
func (c *Cluster) Metrics() *metrics.Registry { return c.reg }

// Nodes returns the live node names in boot order.
func (c *Cluster) Nodes() []string {
	out := make([]string, 0, len(c.order))
	for _, n := range c.order {
		if _, ok := c.servers[n]; ok {
			out = append(out, n)
		}
	}
	return out
}

// Server returns the named node's server, or nil after it was killed.
func (c *Cluster) Server(node string) *server.Server { return c.servers[node] }

// JobProgress reports a hosted job's schedule census from its hosting
// JobManager; ok is false when the node is dead or the job unknown.
func (c *Cluster) JobProgress(jmNode, jobID string) (jobmgr.Progress, bool) {
	srv, ok := c.servers[jmNode]
	if !ok {
		return jobmgr.Progress{}, false
	}
	return srv.JobManager().JobProgress(jobID)
}

// PlacementStats sums every live JobManager's resource-directory counters.
func (c *Cluster) PlacementStats() placement.Stats {
	var agg placement.Stats
	for _, name := range c.order {
		srv, ok := c.servers[name]
		if !ok {
			continue
		}
		s := srv.JobManager().PlacementStats()
		agg.SolicitRounds += s.SolicitRounds
		agg.CacheHits += s.CacheHits
		agg.Invalidations += s.Invalidations
		agg.Evictions += s.Evictions
		agg.WarmHits += s.WarmHits
		agg.ColdMisses += s.ColdMisses
		agg.BytesSaved += s.BytesSaved
	}
	return agg
}

// WireStats snapshots the fabric's transport counters: messages and
// encoded bytes on the wire, per-kind send counts, and inbound frame
// errors. Both fabric implementations account encoded frame sizes, so the
// figure is comparable between simulated and TCP deployments.
func (c *Cluster) WireStats() transport.WireSnapshot {
	type statser interface{ Stats() *transport.Stats }
	if s, ok := c.network.(statser); ok {
		return s.Stats().Wire()
	}
	return transport.WireSnapshot{}
}

// BlobTransfers sums every live TaskManager's distinct archive-blob
// insertions — the cluster's archive-bytes-on-the-wire figure.
func (c *Cluster) BlobTransfers() int64 {
	var n int64
	for _, name := range c.order {
		if srv, ok := c.servers[name]; ok {
			n += srv.TaskManager().BlobCache().Transfers()
		}
	}
	return n
}

// DataplaneStats sums every live JobManager's data-plane broker counters:
// location adverts, resolves and parks, and the payload bytes the managers
// served from inline copies (the only data-plane bytes that touch a
// JobManager at all).
func (c *Cluster) DataplaneStats() dataplane.StatsSnapshot {
	var agg dataplane.StatsSnapshot
	for _, name := range c.order {
		if srv, ok := c.servers[name]; ok {
			agg = agg.Add(srv.JobManager().DataplaneStats())
		}
	}
	return agg
}

// DataplaneBytes sums the live TaskManagers' direct TM→TM data-plane
// transfer counters: payload bytes served to peers and pulled from them.
// Compared against WireStats' JobManager traffic, this is the tentpole
// figure — shuffle bytes that bypass the managers entirely.
func (c *Cluster) DataplaneBytes() (served, fetched int64) {
	for _, name := range c.order {
		if srv, ok := c.servers[name]; ok {
			served += srv.TaskManager().DataServedBytes()
			fetched += srv.TaskManager().DataFetchedBytes()
		}
	}
	return served, fetched
}

// JobTrace assembles a job's span timeline by asking every live
// JobManager — across failover the adopter holds the merged record, so
// the first node that knows the job answers.
func (c *Cluster) JobTrace(jobID string) ([]trace.Span, bool) {
	for _, name := range c.order {
		srv, ok := c.servers[name]
		if !ok {
			continue
		}
		if spans, ok := srv.JobManager().JobTrace(jobID); ok {
			return spans, true
		}
	}
	return nil, false
}

// CacheStats sums the live TaskManagers' digest-cache hit/miss counters
// (archives and data-plane blobs share each node's cache).
func (c *Cluster) CacheStats() (hits, misses int64) {
	for _, name := range c.order {
		if srv, ok := c.servers[name]; ok {
			cache := srv.TaskManager().BlobCache()
			hits += cache.Hits()
			misses += cache.Misses()
		}
	}
	return hits, misses
}

// KillNode abruptly removes a node from the cluster (failure injection):
// its endpoint detaches before its managers stop, so messages in flight to
// and from the node are dropped, like a machine losing power. Surviving
// JobManagers detect the death by heartbeat-lease expiry and re-place the
// node's in-flight tasks.
func (c *Cluster) KillNode(node string) error {
	srv, ok := c.servers[node]
	if !ok {
		return fmt.Errorf("cluster: kill %s: unknown or already dead node", node)
	}
	delete(c.servers, node)
	return srv.Kill()
}

// Stop shuts down every server and the fabric.
func (c *Cluster) Stop() {
	for name, srv := range c.servers {
		_ = srv.Close()
		delete(c.servers, name)
	}
	_ = c.network.Close()
}
