// Command cnportal boots a CN cluster and serves the web portal on top of
// it, the paper's "other deployment configuration ... through a web portal
// so that the user does not need to log on to the subnet" — extended with
// the asynchronous job service (queued submission, lifecycle REST API,
// metrics).
//
// Usage:
//
//	cnportal [-addr :8080] [-nodes 4] [-workers 4] [-queue 64] [-result-ttl 15m]
//	         [-data-dir DIR] [-debug] [-heartbeat 500ms] [-assign-timeout 5s]
//	         [-max-task-retries 2] [-straggler-after 0s] [-trace-sample 0.125]
//	         [-log-level info]
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
	var cfg cluster.Config
	cfg.Flags(flag.CommandLine)
	var (
		addr      = flag.String("addr", ":8080", "HTTP listen address")
		workers   = flag.Int("workers", 4, "async job execution pool size")
		queue     = flag.Int("queue", 64, "submission queue depth before 429s")
		resultTTL = flag.Duration("result-ttl", 15*time.Minute, "how long terminal job records are kept")
		dataDir   = flag.String("data-dir", "", "directory for the durable job log; queued/running jobs replay after a restart (empty = in-memory only)")
		logLevel  = flag.String("log-level", "info", "structured log level: debug, info, warn, error")
		debug     = flag.Bool("debug", false, "mount net/http/pprof under /debug/pprof/")
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

	cfg.Registry = reg
	cfg.Log = slogger
	c, err := cluster.Start(cfg)
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
		TraceSample: cfg.TraceSample,
		Debug:       *debug,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer p.Close()

	log.Printf("cluster up (%d nodes), portal listening on %s (%d workers, queue %d)",
		len(c.Nodes()), *addr, *workers, *queue)
	if err := http.ListenAndServe(*addr, p.Handler()); err != nil {
		log.Fatal(err)
	}
}
