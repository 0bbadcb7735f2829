// Command cnportal boots a CN cluster and serves the web portal on top of
// it, the paper's "other deployment configuration ... through a web portal
// so that the user does not need to log on to the subnet" — extended with
// the asynchronous job service (queued submission, lifecycle REST API,
// metrics).
//
// Usage:
//
//	cnportal [-addr :8080] [-nodes N] [-workers W] [-queue Q] [-result-ttl 15m] [-data-dir DIR]
//	         [-log-level info] [-trace-sample 0.125] [-debug] [-v]
package main

import (
	"flag"
	"log"
	"net/http"
	"time"

	"cn"
	"cn/internal/cluster"
	"cn/internal/floyd"
	"cn/internal/logging"
	"cn/internal/portal"
	"cn/internal/workloads"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cnportal: ")
	var (
		addr       = flag.String("addr", ":8080", "HTTP listen address")
		nodes      = flag.Int("nodes", 4, "cluster size")
		workers    = flag.Int("workers", 4, "async job execution pool size")
		queue      = flag.Int("queue", 64, "submission queue depth before 429s")
		resultTTL  = flag.Duration("result-ttl", 15*time.Minute, "how long terminal job records are kept")
		dataDir    = flag.String("data-dir", "", "directory for the durable job log; queued/running jobs replay after a restart (empty = in-memory only)")
		heartbeat  = flag.Duration("heartbeat", 0, "TaskManager heartbeat interval (0 = 500ms; negative disables failure detection)")
		maxRetries = flag.Int("max-task-retries", 0, "per-task re-placement budget after node failures (0 = 2; negative disables recovery)")
		straggler  = flag.Duration("straggler-after", 0, "speculatively re-run tasks whose progress stalls this long (0 = disabled)")
		assignWait = flag.Duration("assign-timeout", 0, "JobManager batch-assignment round-trip timeout (0 = 5s)")
		logLevel   = flag.String("log-level", "info", "structured log level: debug, info, warn, error")
		sample     = flag.Float64("trace-sample", 0, "distributed-trace root sampling probability (0 = 0.125 default; negative disables tracing)")
		debug      = flag.Bool("debug", false, "mount net/http/pprof under /debug/pprof/")
	)
	flag.Parse()

	level, err := logging.ParseLevel(*logLevel)
	if err != nil {
		log.Fatal(err)
	}
	slogger := logging.Default(level)

	reg := cn.NewRegistry()
	floyd.MustRegister(reg)
	workloads.MustRegister(reg)
	reg.MustRegister("cn.Noop", func() cn.Task {
		return cn.TaskFunc(func(cn.TaskContext) error { return nil })
	})

	c, err := cluster.Start(cluster.Config{
		Nodes:             *nodes,
		Registry:          reg,
		AssignTimeout:     *assignWait,
		HeartbeatInterval: *heartbeat,
		MaxTaskRetries:    *maxRetries,
		StragglerAfter:    *straggler,
		Log:               slogger,
		TraceSample:       *sample,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Stop()

	p, err := portal.New(portal.Config{
		Cluster:     c,
		Workers:     *workers,
		QueueDepth:  *queue,
		ResultTTL:   *resultTTL,
		DataDir:     *dataDir,
		Log:         slogger,
		TraceSample: *sample,
		Debug:       *debug,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer p.Close()

	log.Printf("cluster up (%d nodes), portal listening on %s (%d workers, queue %d)",
		*nodes, *addr, *workers, *queue)
	if err := http.ListenAndServe(*addr, p.Handler()); err != nil {
		log.Fatal(err)
	}
}
