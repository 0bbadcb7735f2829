// Command cnserver boots CN servers — the paper's deployment where "CN
// Servers run on the various nodes of the cluster". In this reproduction
// the cluster fabric is in-process, so one cnserver invocation hosts all N
// nodes (over the simulated fabric or TCP loopback sockets) and stays up
// until interrupted; pair it with -http to also expose the portal.
//
// Usage:
//
//	cnserver [-nodes N] [-tcp] [-memory MB] [-http :8080] [-log-level info]
//	         [-trace-sample 0.125] [-debug] [-v]
package main

import (
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"

	"cn"
	"cn/internal/cluster"
	"cn/internal/floyd"
	"cn/internal/logging"
	"cn/internal/portal"
	"cn/internal/workloads"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cnserver: ")
	var (
		nodes      = flag.Int("nodes", 4, "number of CN server nodes")
		tcp        = flag.Bool("tcp", false, "use TCP loopback sockets instead of the in-memory fabric")
		memoryMB   = flag.Int("memory", 8000, "per-node task capacity in MB")
		httpAddr   = flag.String("http", "", "also serve the web portal on this address")
		heartbeat  = flag.Duration("heartbeat", 0, "TaskManager heartbeat interval (0 = 500ms; negative disables failure detection)")
		assignWait = flag.Duration("assign-timeout", 0, "JobManager batch-assignment round-trip timeout (0 = 5s)")
		maxRetries = flag.Int("max-task-retries", 0, "per-task re-placement budget after node failures (0 = 2; negative disables recovery)")
		straggler  = flag.Duration("straggler-after", 0, "speculatively re-run tasks whose progress stalls this long (0 = disabled)")
		logLevel   = flag.String("log-level", "info", "structured log level: debug, info, warn, error")
		sample     = flag.Float64("trace-sample", 0, "distributed-trace root sampling probability (0 = 0.125 default; negative disables tracing)")
		debug      = flag.Bool("debug", false, "mount net/http/pprof on the portal mux (needs -http)")
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

	tp := cluster.TransportMem
	if *tcp {
		tp = cluster.TransportTCP
	}
	c, err := cluster.Start(cluster.Config{
		Nodes:             *nodes,
		Transport:         tp,
		MemoryMB:          *memoryMB,
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
	log.Printf("cluster up: nodes %v", c.Nodes())

	if *httpAddr != "" {
		p, err := portal.New(portal.Config{
			Cluster:     c,
			Log:         slogger,
			TraceSample: *sample,
			Debug:       *debug,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer p.Close()
		go func() {
			log.Printf("portal listening on %s", *httpAddr)
			if err := http.ListenAndServe(*httpAddr, p.Handler()); err != nil {
				log.Fatal(err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	log.Println("shutting down")
}
