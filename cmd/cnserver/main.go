// Command cnserver boots CN servers — the paper's deployment where "CN
// Servers run on the various nodes of the cluster". In this reproduction
// the cluster fabric is in-process, so one cnserver invocation hosts all N
// nodes (over the simulated fabric or TCP loopback sockets) and stays up
// until interrupted; pair it with -http to also expose the portal.
//
// Usage:
//
//	cnserver [-nodes 4] [-tcp] [-memory 8000] [-http ADDR] [-debug]
//	         [-heartbeat 500ms] [-assign-timeout 5s] [-max-task-retries 2]
//	         [-straggler-after 0s] [-trace-sample 0.125] [-log-level info]
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
	var cfg cluster.Config
	cfg.Flags(flag.CommandLine)
	flag.IntVar(&cfg.MemoryMB, "memory", cfg.WithDefaults().MemoryMB, "per-node task capacity in MB")
	var (
		tcp      = flag.Bool("tcp", false, "use TCP loopback sockets instead of the in-memory fabric")
		httpAddr = flag.String("http", "", "also serve the web portal on this address")
		logLevel = flag.String("log-level", "info", "structured log level: debug, info, warn, error")
		debug    = flag.Bool("debug", false, "mount net/http/pprof on the portal mux (needs -http)")
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

	if *tcp {
		cfg.Transport = cluster.TransportTCP
	}
	cfg.Registry = reg
	cfg.Log = slogger
	c, err := cluster.Start(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Stop()
	log.Printf("cluster up: nodes %v", c.Nodes())

	if *httpAddr != "" {
		p, err := portal.New(portal.Config{
			Cluster:     c,
			Log:         slogger,
			TraceSample: cfg.TraceSample,
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
