// Package cluster provides the simulated CN deployment harness: it boots N
// CN servers on a shared fabric — the stand-in for the paper's "CN Servers
// run on the various nodes of the cluster" deployment — and offers failure
// injection and teardown for tests and benchmarks.
package cluster

import (
	"fmt"

	"cn/internal/config"
	"cn/internal/dataplane"
	"cn/internal/jobmgr"
	"cn/internal/metrics"
	"cn/internal/placement"
	"cn/internal/server"
	"cn/internal/trace"
	"cn/internal/transport"
)

// Config parametrizes a simulated cluster; it is the one deployment
// config every layer reads (see package config).
type Config = config.Config

// Transport selects the fabric implementation.
type Transport = config.Transport

// Fabric choices.
const (
	// TransportMem is the in-memory simulated network (default).
	TransportMem = config.TransportMem
	// TransportTCP uses real loopback sockets.
	TransportTCP = config.TransportTCP
)

// Cluster is a set of running CN servers on one fabric.
type Cluster struct {
	network transport.Network
	servers map[string]*server.Server
	order   []string
	reg     *metrics.Registry
}

// Start boots the cluster.
func Start(cfg Config) (*Cluster, error) {
	cfg = cfg.WithDefaults()
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
		network: net,
		servers: make(map[string]*server.Server, cfg.Nodes),
		reg:     metrics.NewRegistry(),
	}
	for i := 1; i <= cfg.Nodes; i++ {
		name := fmt.Sprintf("%s%d", cfg.NodePrefix, i)
		srv, err := server.Start(net, name, cfg)
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
