// Command cnrun executes a CNX descriptor (or an XMI model, transforming
// it first) on an embedded CN cluster with the standard task classes
// (transitive closure + workloads) pre-deployed, and prints per-job
// results.
//
// Usage:
//
//	cnrun -in client.cnx [-xmi] [-nodes 4] [-invocations 4] [-n 32] [-timeout 1m0s]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"cn"
	"cn/internal/floyd"
	"cn/internal/workloads"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cnrun: ")
	var (
		in          = flag.String("in", "", "input descriptor file (required)")
		isXMI       = flag.Bool("xmi", false, "input is XMI; run XMI2CNX first")
		nodes       = flag.Int("nodes", 4, "cluster size")
		invocations = flag.Int("invocations", 4, "dynamic invocation expansion count")
		graphSize   = flag.Int("n", 32, "input graph size for transitive-closure jobs")
		timeout     = flag.Duration("timeout", 60*time.Second, "execution timeout")
	)
	flag.Parse()
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}

	f, err := os.Open(*in)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()

	// Dynamic states expand through their run-time argument expression:
	// the transitive-closure model's "rowBlocks" yields full TCTask
	// argument lists; anything else gets index-only parameters.
	args := func(expr string) ([][]cn.Param, error) {
		if expr == "rowBlocks" {
			return floyd.DynamicArgs(*invocations)(expr)
		}
		return cn.FixedArgs(*invocations)(expr)
	}

	var doc *cn.CNXDocument
	if *isXMI {
		var out strings.Builder
		if err := cn.XMI2CNX(f, &out, cn.TransformOptions{Args: args}); err != nil {
			log.Fatal(err)
		}
		doc, err = cn.ParseCNX(strings.NewReader(out.String()))
	} else {
		doc, err = cn.ParseCNX(f)
	}
	if err != nil {
		log.Fatal(err)
	}

	reg := cn.NewRegistry()
	floyd.MustRegister(reg)
	workloads.MustRegister(reg)
	reg.MustRegister("cn.Noop", func() cn.Task {
		return cn.TaskFunc(func(cn.TaskContext) error { return nil })
	})

	cluster, err := cn.StartCluster(cn.ClusterOptions{Nodes: *nodes, Registry: reg})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	client, err := cn.Connect(cluster, cn.ClientOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	// Transitive-closure clients need the input matrix fed to their split
	// task; detect them and drive the guiding example directly.
	if job := transclosureJob(doc); job != nil {
		runTransclosure(ctx, client, *graphSize, *invocations)
		return
	}

	results, err := cn.RunDescriptor(ctx, client, doc, nil)
	if err != nil {
		log.Fatal(err)
	}
	names := make([]string, 0, len(results))
	for name := range results {
		names = append(names, name)
	}
	sort.Strings(names)
	failed := false
	for _, name := range names {
		res := results[name]
		status := "completed"
		if res.Failed {
			status = "FAILED: " + res.Err
			failed = true
		}
		fmt.Printf("job %-16s %-10s %s\n", name, res.JobID, status)
		for task, errText := range res.TaskErrs {
			fmt.Printf("  task %s: %s\n", task, errText)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// transclosureJob returns the descriptor's job when it is the paper's
// transitive-closure client (identified by the TaskSplit class), or nil.
func transclosureJob(doc *cn.CNXDocument) *cn.TaskSpec {
	for ji := range doc.Client.Jobs {
		job := &doc.Client.Jobs[ji]
		for ti := range job.Tasks {
			if job.Tasks[ti].Class == floyd.ClassTaskSplit {
				s, err := job.Tasks[ti].Spec()
				if err == nil {
					return s
				}
			}
		}
	}
	return nil
}

// runTransclosure drives the guiding example: generate a random graph,
// execute the CN job, and verify against the sequential baseline.
func runTransclosure(ctx context.Context, client *cn.Client, n, workers int) {
	m := floyd.RandomGraph(n, 0.25, 9, 42)
	fmt.Printf("transitive-closure client detected: running Floyd APSP on a %d-node graph with %d workers\n", n, workers)
	start := time.Now()
	got, err := floyd.Run(ctx, client, m, workers)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	if !got.Equal(floyd.Sequential(m)) {
		log.Fatal("result differs from sequential Floyd-Warshall")
	}
	fmt.Printf("completed in %v; result verified against sequential baseline\n", elapsed)
}
