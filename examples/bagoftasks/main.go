// Bagoftasks demonstrates the paper's second coordination mechanism ("CN
// also supports communication via tuple spaces...") as a replicated-worker
// bag of tasks: a pool of identical workers steals work items from the
// job's tuple space, so load balances dynamically — fast nodes simply take
// more chunks — without any task-to-task messaging or central dispatcher.
//
// The job counts primes below -n. The client seeds ("range", lo, hi)
// tuples into the space; each worker loops In(("range", ?, ?)), sieves the
// chunk, and Outs ("count", lo, n). The client collects counts, re-seeds
// chunks whose results do not arrive (the at-most-once answer to a worker
// dying between In and Out), and finally Outs one poison pill per worker.
// With -kill a worker node is power-cut mid-run: its tasks are re-placed
// by the recovery engine, the fresh instances reconnect to the same space,
// and the run still completes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"time"

	"cn"
)

// countPrimes counts primes in [lo, hi) by trial division — deliberately
// unoptimized compute so chunks cost real work.
func countPrimes(lo, hi int) int {
	n := 0
	for x := lo; x < hi; x++ {
		if x < 2 {
			continue
		}
		prime := true
		for d := 2; d*d <= x; d++ {
			if x%d == 0 {
				prime = false
				break
			}
		}
		if prime {
			n++
		}
	}
	return n
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bagoftasks: ")
	var (
		limit   = flag.Int("n", 50000, "count primes below this bound")
		chunk   = flag.Int("chunk", 2500, "work-item size (numbers per range tuple)")
		workers = flag.Int("workers", 3, "replicated worker tasks")
		nodes   = flag.Int("nodes", 4, "cluster size")
		kill    = flag.Bool("kill", false, "power-cut a worker node mid-run to show recovery")
	)
	flag.Parse()

	registry := cn.NewRegistry()
	registry.MustRegister("bag.Worker", func() cn.Task {
		return cn.TaskFunc(func(ctx cn.TaskContext) error {
			for {
				t, err := ctx.In(cn.Template{"range", cn.TypeOf(0), cn.TypeOf(0)})
				if errors.Is(err, cn.ErrSpaceClosed) {
					return nil // job torn down while parked
				}
				if err != nil {
					return err
				}
				lo, hi := t[1].(int), t[2].(int)
				if lo < 0 {
					return nil // poison pill
				}
				if err := ctx.Out(cn.Tuple{"count", lo, countPrimes(lo, hi)}); err != nil {
					return err
				}
			}
		})
	})

	cluster, err := cn.StartCluster(cn.ClusterOptions{
		Nodes:    *nodes,
		Registry: registry,
		// Aggressive failure detection so the -kill demo recovers in
		// milliseconds instead of seconds.
		HeartbeatInterval: 20 * time.Millisecond,
		MaxTaskRetries:    3,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	client, err := cn.Connect(cluster, cn.ClientOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	job, err := client.CreateJob("bagoftasks", cn.JobRequirements{})
	if err != nil {
		log.Fatal(err)
	}
	specs := make([]*cn.TaskSpec, *workers)
	for i := range specs {
		specs[i] = &cn.TaskSpec{
			Name: fmt.Sprintf("worker%d", i), Class: "bag.Worker",
			Req: cn.Requirements{MemoryMB: 100, RunModel: cn.RunAsThreadInTM},
		}
	}
	placements, err := job.CreateTasks(specs, nil)
	if err != nil {
		log.Fatal(err)
	}
	if err := job.Start(); err != nil {
		log.Fatal(err)
	}

	// Seed the bag: one ("range", lo, hi) tuple per chunk. Out is one-way —
	// it returns once the tuple is queued — and no Flush is needed before
	// collecting: the first In below follows these Outs on the same
	// connection, so the JobManager has applied them all when it sees it.
	space := job.Space()
	pending := make(map[int]int) // lo -> hi, not yet counted
	for lo := 0; lo < *limit; lo += *chunk {
		hi := min(lo+*chunk, *limit)
		pending[lo] = hi
		if err := space.Out(cn.Tuple{"range", lo, hi}); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("seeded %d work items for %d workers on %d nodes\n", len(pending), *workers, *nodes)

	if *kill {
		// Cut a worker-hosting node (never the JobManager's — it hosts the
		// space) while workers are mid-steal.
		for _, node := range placements {
			if node != job.JMNode {
				time.Sleep(30 * time.Millisecond)
				if err := cluster.KillNode(node); err != nil {
					log.Fatal(err)
				}
				fmt.Printf("killed %s mid-run; recovery re-places its workers\n", node)
				break
			}
		}
	}

	// Collect counts. A chunk taken by a worker that died before answering
	// is re-seeded after a quiet period — the worker side is idempotent, so
	// a duplicate answer is simply skipped.
	total := 0
	for len(pending) > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		t, err := space.In(ctx, cn.Template{"count", cn.TypeOf(0), cn.TypeOf(0)})
		cancel()
		if err != nil {
			fmt.Printf("re-seeding %d unanswered items\n", len(pending))
			for lo, hi := range pending {
				if err := space.Out(cn.Tuple{"range", lo, hi}); err != nil {
					log.Fatal(err)
				}
			}
			continue
		}
		lo, n := t[1].(int), t[2].(int)
		if _, open := pending[lo]; !open {
			continue // duplicate answer for a re-seeded chunk
		}
		delete(pending, lo)
		total += n
	}

	// Poison the pool so the workers — and with them the job — terminate.
	for i := 0; i < *workers; i++ {
		if err := space.Out(cn.Tuple{"range", -1, -1}); err != nil {
			log.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := job.Wait(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d primes below %d (job failed=%v, retries=%d)\n",
		total, *limit, res.Failed, job.Progress().Retried)
}
