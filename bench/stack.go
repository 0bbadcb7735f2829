package main

// The system under test, booted in-process through its public constructors:
// a 4-node cluster on the chosen fabric and, for the portal workloads, the
// portal behind a real HTTP listener. Everything the benchmark reads back
// comes from the same public surface an operator has.

import (
	"context"
	"net"
	"net/http"
	"os"
	"runtime"
	"syscall"
	"time"

	"cn/internal/api"
	"cn/internal/cluster"
	"cn/internal/portal"
	"cn/internal/task"
	"cn/internal/trace"
)

const (
	clusterNodes = 4
	// Capacity must not be what is measured: task memory and the per-manager
	// job cap are lifted far above what any workload asks for.
	nodeMemoryMB = 64000
	maxJobs      = 4096
	// The lease windows are lifted past any run's length. On the shipped ones
	// (1.5 s and 3 s) the seed suspects healthy nodes under short jobs and
	// fails 2-32 % of the portal workloads' jobs, a share that follows where
	// the heartbeat ticks fall and not the code (README, Findings 1): two sets
	// of runs of one commit do not agree on it, so nothing could be judged on
	// them. Heartbeats, lease bookkeeping and checkpointing all still run.
	suspectAfter = time.Hour
	deadAfter    = 2 * time.Hour
	// cnportal's shipped defaults.
	portalWorkers    = 4
	portalQueueDepth = 64
)

// stackConfig selects what a workload needs booted.
type stackConfig struct {
	TCP    bool // loopback sockets instead of the in-memory fabric
	Portal bool // portal + HTTP listener
	WAL    bool // portal job store on a write-ahead log under walRoot
	Traced bool // TraceSample 1 on cluster, portal and clients
}

func (c stackConfig) fabric() string {
	if c.TCP {
		return "tcp"
	}
	return "mem"
}

// stack is one booted system.
type stack struct {
	cfg     stackConfig
	cluster *cluster.Cluster
	portal  *portal.Portal
	server  *http.Server
	served  chan struct{}
	url     string
	walDir  string
	tracer  *trace.Tracer
	clients []*api.Client
}

func sample(traced bool) float64 {
	if traced {
		return 1
	}
	return -1
}

// boot starts the cluster on its shipped defaults (heartbeats and
// checkpointing included; only the capacity settings and lease windows above
// differ) and, when asked, the portal in front of it. walRoot is where a
// WAL-backed portal creates its data directory.
func boot(cfg stackConfig, reg *task.Registry, walRoot string) (*stack, error) {
	tp := cluster.TransportMem
	if cfg.TCP {
		tp = cluster.TransportTCP
	}
	cc := cluster.Config{
		Nodes:        clusterNodes,
		MemoryMB:     nodeMemoryMB,
		MaxJobs:      maxJobs,
		SuspectAfter: suspectAfter,
		DeadAfter:    deadAfter,
		Transport:    tp,
		Registry:     reg,
		TraceSample:  sample(cfg.Traced),
	}
	c, err := cluster.Start(cc)
	if err != nil {
		return nil, err
	}
	s := &stack{cfg: cfg, cluster: c}
	if cfg.Traced {
		s.tracer = trace.New(trace.Config{Node: "bench", Sample: 1})
	}
	if !cfg.Portal {
		return s, nil
	}
	pc := portal.Config{
		Cluster:     c,
		Workers:     portalWorkers,
		QueueDepth:  portalQueueDepth,
		TraceSample: sample(cfg.Traced),
	}
	if cfg.WAL {
		if err := os.MkdirAll(walRoot, 0o755); err != nil {
			s.stop()
			return nil, err
		}
		dir, err := os.MkdirTemp(walRoot, "wal-")
		if err != nil {
			s.stop()
			return nil, err
		}
		s.walDir = dir
		pc.DataDir = dir
	}
	p, err := portal.New(pc)
	if err != nil {
		s.stop()
		return nil, err
	}
	s.portal = p
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.stop()
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.server = &http.Server{Handler: p.Handler()}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		_ = s.server.Serve(ln) // returns ErrServerClosed on stop
	}()
	return s, nil
}

// connect attaches one client-API handle to the cluster fabric.
func (s *stack) connect() (*api.Client, error) {
	cl, err := api.Initialize(s.cluster.Network(), api.Options{Tracer: s.tracer})
	if err != nil {
		return nil, err
	}
	s.clients = append(s.clients, cl)
	return cl, nil
}

// stop tears everything down and removes the WAL directory.
func (s *stack) stop() {
	if s.server != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = s.server.Shutdown(ctx)
		cancel()
		<-s.served
	}
	for _, cl := range s.clients {
		_ = cl.Close()
	}
	if s.portal != nil {
		_ = s.portal.Close()
	}
	s.cluster.Stop()
	if s.walDir != "" {
		_ = os.RemoveAll(s.walDir)
	}
}

// activeJobs sums ActiveJobs over every JobManager.
func (s *stack) activeJobs() int {
	n := 0
	for _, node := range s.cluster.Nodes() {
		n += s.cluster.Server(node).JobManager().ActiveJobs()
	}
	return n
}

// counters is one reading of every public counter the per-layer metrics are
// deltas of, by name; "kind.<KIND>" entries are the fabric's per-kind send
// counts.
type counters struct {
	At  time.Time
	CPU time.Duration // process user+sys
	V   map[string]float64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (s *stack) read() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ps := s.cluster.PlacementStats()
	dp := s.cluster.DataplaneStats()
	_, fetched := s.cluster.DataplaneBytes()
	hits, misses := s.cluster.CacheStats()
	w := s.cluster.WireStats()
	c := counters{At: time.Now(), CPU: cpuTime(), V: map[string]float64{
		"sent":           float64(w.Sent),
		"bytes_sent":     float64(w.BytesSent),
		"flushes":        float64(w.Flushes),
		"dropped":        float64(w.Dropped),
		"control_drops":  float64(w.ControlDrops),
		"bulk_drops":     float64(w.BulkDrops),
		"frame_errors":   float64(w.FrameErrors),
		"solicit_rounds": float64(ps.SolicitRounds),
		"place_hits":     float64(ps.CacheHits),
		"evictions":      float64(ps.Evictions),
		"invalidations":  float64(ps.Invalidations),
		"resolves":       float64(dp.Resolves),
		"parks":          float64(dp.Parks),
		"dp_retries":     float64(dp.Retries),
		"fetched_bytes":  float64(fetched),
		"cache_hits":     float64(hits),
		"cache_misses":   float64(misses),
		"blob_transfers": float64(s.cluster.BlobTransfers()),
		"alloc_bytes":    float64(ms.TotalAlloc),
		"gc_cycles":      float64(ms.NumGC),
		"gc_pause_ns":    float64(ms.PauseTotalNs),
	}}
	for kind, n := range w.ByKind {
		c.V["kind."+kind] = float64(n)
	}
	return c
}

// peakRSSMB is the process's peak resident set (what /proc calls VmHWM).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
