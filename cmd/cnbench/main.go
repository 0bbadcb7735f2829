// Command cnbench regenerates the experiment tables recorded in
// EXPERIMENTS.md: the parallel Floyd speedup study (T-A), discovery
// latency vs cluster size (T-B), message round-trip latency (T-C),
// transform throughput vs model size (T-D), and the batch placement study
// (T-G), whose numbers are also snapshotted to BENCH_placement.json so the
// perf trajectory is recorded. Run with -exp=all (default) or a single
// experiment id.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"cn"
	"cn/internal/discovery"
	"cn/internal/floyd"
	"cn/internal/jobstore"
	"cn/internal/metrics"
	"cn/internal/trace"
	"cn/internal/workloads"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cnbench: ")
	var (
		exp   = flag.String("exp", "all", "experiment: floyd | montecarlo | discovery | messaging | transform | placement | recovery | tuplespace | wire | durability | shuffle | trace | transport | all")
		reps  = flag.Int("reps", 5, "repetitions per configuration")
		out   = flag.String("placement-out", "BENCH_placement.json", "path for the placement experiment's JSON snapshot")
		rout  = flag.String("recovery-out", "BENCH_recovery.json", "path for the recovery experiment's JSON snapshot")
		tout  = flag.String("tuplespace-out", "BENCH_tuplespace.json", "path for the tuplespace experiment's JSON snapshot")
		wout  = flag.String("wire-out", "BENCH_wire.json", "path for the wire-codec experiment's JSON snapshot")
		dout  = flag.String("durability-out", "BENCH_durability.json", "path for the durability experiment's JSON snapshot")
		sout  = flag.String("shuffle-out", "BENCH_shuffle.json", "path for the shuffle data-plane experiment's JSON snapshot")
		trout = flag.String("trace-out", "BENCH_trace.json", "path for the tracing-overhead experiment's JSON snapshot")
		tpout = flag.String("transport-out", "BENCH_transport.json", "path for the transport-pipelining experiment's JSON snapshot")
	)
	flag.Parse()

	switch *exp {
	case "floyd":
		floydTable(*reps)
	case "montecarlo":
		monteCarloTable(*reps)
	case "discovery":
		discoveryTable(*reps)
	case "messaging":
		messagingTable(*reps)
	case "transform":
		transformTable(*reps)
	case "placement":
		placementTable(*reps, *out)
	case "recovery":
		recoveryTable(*reps, *rout)
	case "tuplespace":
		tuplespaceTable(*reps, *tout)
	case "wire":
		wireTable(*reps, *wout)
	case "durability":
		durabilityTable(*reps, *dout)
	case "shuffle":
		shuffleTable(*reps, *sout)
	case "trace":
		traceTable(*reps, *trout)
	case "transport":
		transportTable(*reps, *tpout)
	case "all":
		floydTable(*reps)
		monteCarloTable(*reps)
		discoveryTable(*reps)
		messagingTable(*reps)
		transformTable(*reps)
		placementTable(*reps, *out)
		recoveryTable(*reps, *rout)
		tuplespaceTable(*reps, *tout)
		wireTable(*reps, *wout)
		durabilityTable(*reps, *dout)
		shuffleTable(*reps, *sout)
		traceTable(*reps, *trout)
		transportTable(*reps, *tpout)
	default:
		log.Fatalf("unknown experiment %q", *exp)
	}
}

// monteCarloTable is experiment T-A2: compute-bound scaling. A fixed total
// of 4M samples is split across W workers; unlike the communication-bound
// small-N Floyd study, this shows the near-linear speedup CN delivers when
// per-task compute dominates messaging.
func monteCarloTable(reps int) {
	header("T-A2  Monte-Carlo pi, 4M total samples (compute-bound scaling)")
	const total = 4_000_000
	c, cl := startCluster(4)
	defer c.Close()
	defer cl.Close()
	ctx := context.Background()
	var base time.Duration
	fmt.Printf("%-14s %12s %10s\n", "workers", "median", "speedup")
	for _, w := range []int{1, 2, 4, 8} {
		per := int64(total / w)
		d := timeIt(reps, func() {
			if _, err := workloads.RunMonteCarloPi(ctx, cl, w, per, 7); err != nil {
				log.Fatal(err)
			}
		})
		if w == 1 {
			base = d
		}
		fmt.Printf("%-14d %12v %9.2fx\n", w, d, float64(base)/float64(d))
	}
}

func newRegistry() *cn.Registry {
	reg := cn.NewRegistry()
	floyd.MustRegister(reg)
	workloads.MustRegister(reg)
	reg.MustRegister("bench.Noop", func() cn.Task {
		return cn.TaskFunc(func(cn.TaskContext) error { return nil })
	})
	// bench.Sleep simulates a short compute burst; it polls Done so a
	// cancelled copy (a recovery loser) exits promptly.
	reg.MustRegister("bench.Sleep", func() cn.Task {
		return cn.TaskFunc(func(ctx cn.TaskContext) error {
			deadline := time.Now().Add(60 * time.Millisecond)
			for time.Now().Before(deadline) {
				if ctx.Done() {
					return nil
				}
				time.Sleep(2 * time.Millisecond)
			}
			return nil
		})
	})
	// bench.SleepLong is the durability experiment's victim workload: long
	// enough that the JobManager kill always lands mid-job, polling Done so
	// cancelled copies exit promptly.
	reg.MustRegister("bench.SleepLong", func() cn.Task {
		return cn.TaskFunc(func(ctx cn.TaskContext) error {
			deadline := time.Now().Add(400 * time.Millisecond)
			for time.Now().Before(deadline) {
				if ctx.Done() {
					return nil
				}
				time.Sleep(5 * time.Millisecond)
			}
			return nil
		})
	})
	// bench.TSWorker is the tuple-space experiment's replicated worker: it
	// steals ("work", v) items from the job's space and answers with
	// ("res", v); a negative item is the poison pill.
	reg.MustRegister("bench.TSWorker", func() cn.Task {
		return cn.TaskFunc(func(ctx cn.TaskContext) error {
			for {
				t, err := ctx.In(cn.Template{"work", cn.TypeOf(0)})
				if err != nil {
					return nil // space closed at teardown
				}
				v := t[1].(int)
				if v < 0 {
					return nil
				}
				if err := ctx.Out(cn.Tuple{"res", v}); err != nil {
					return err
				}
			}
		})
	})
	// bench.Shuffle is the data-plane all-to-all worker: it publishes its
	// own output, then pulls every peer's straight from the producing
	// nodes. Params: [0] worker count, [1] payload bytes.
	reg.MustRegister("bench.Shuffle", func() cn.Task {
		return cn.TaskFunc(func(ctx cn.TaskContext) error {
			peers, size, err := shuffleParams(ctx)
			if err != nil {
				return err
			}
			if err := ctx.Put("shuf/"+ctx.TaskName(), shufflePayload(ctx.TaskName(), size)); err != nil {
				return err
			}
			for i := 1; i <= peers; i++ {
				data, err := ctx.Get(context.Background(), fmt.Sprintf("shuf/s%d", i))
				if err != nil {
					return err
				}
				if len(data) != size {
					return fmt.Errorf("bench.Shuffle: s%d: got %d bytes, want %d", i, len(data), size)
				}
			}
			return nil
		})
	})
	// bench.Relay is the pre-data-plane baseline: the same all-to-all
	// moved as USER mailbox messages, every payload relaying through the
	// JobManager (producer -> JM -> consumer mailbox). Params as
	// bench.Shuffle.
	reg.MustRegister("bench.Relay", func() cn.Task {
		return cn.TaskFunc(func(ctx cn.TaskContext) error {
			peers, size, err := shuffleParams(ctx)
			if err != nil {
				return err
			}
			payload := shufflePayload(ctx.TaskName(), size)
			for i := 1; i <= peers; i++ {
				if err := ctx.Send(fmt.Sprintf("s%d", i), payload); err != nil {
					return err
				}
			}
			for i := 0; i < peers; i++ {
				_, data, err := ctx.Recv()
				if err != nil {
					return err
				}
				if len(data) != size {
					return fmt.Errorf("bench.Relay: got %d bytes, want %d", len(data), size)
				}
			}
			return nil
		})
	})
	reg.MustRegister("bench.Echo", func() cn.Task {
		return cn.TaskFunc(func(ctx cn.TaskContext) error {
			for {
				_, data, err := ctx.Recv()
				if err != nil {
					return nil
				}
				if err := ctx.SendClient(data); err != nil {
					return err
				}
			}
		})
	})
	return reg
}

func startCluster(nodes int) (*cn.Cluster, *cn.Client) {
	c, err := cn.StartCluster(cn.ClusterOptions{Nodes: nodes, Registry: newRegistry(), MemoryMB: 64000})
	if err != nil {
		log.Fatal(err)
	}
	cl, err := cn.Connect(c, cn.ClientOptions{DiscoveryWindow: 20 * time.Millisecond})
	if err != nil {
		log.Fatal(err)
	}
	return c, cl
}

// timeIt runs f reps times and returns the median duration.
func timeIt(reps int, f func()) time.Duration {
	h := metrics.NewHistogram(reps + 1)
	for i := 0; i < reps; i++ {
		start := time.Now()
		f()
		h.ObserveDuration(time.Since(start))
	}
	return time.Duration(h.Quantile(0.5) * float64(time.Millisecond))
}

func header(title string) {
	fmt.Println()
	fmt.Println(title)
	fmt.Println(strings.Repeat("-", len(title)))
}

// floydTable is experiment T-A: parallel Floyd speedup vs worker count.
func floydTable(reps int) {
	header("T-A  Parallel Floyd all-pairs shortest paths (N=96, 4-node cluster)")
	const n = 96
	m := floyd.RandomGraph(n, 0.3, 9, 17)
	seq := timeIt(reps, func() { floyd.Sequential(m) })
	fmt.Printf("%-24s %12s %10s\n", "configuration", "median", "speedup")
	fmt.Printf("%-24s %12v %10s\n", "sequential", seq, "1.00x")
	for _, w := range []int{1, 2, 4, 8} {
		d := timeIt(reps, func() { floyd.ParallelInProcess(m, w) })
		fmt.Printf("%-24s %12v %9.2fx\n", fmt.Sprintf("in-process w=%d", w), d, float64(seq)/float64(d))
	}
	c, cl := startCluster(4)
	defer c.Close()
	defer cl.Close()
	ctx := context.Background()
	for _, w := range []int{1, 2, 4, 8} {
		d := timeIt(reps, func() {
			if _, err := floyd.Run(ctx, cl, m, w); err != nil {
				log.Fatal(err)
			}
		})
		fmt.Printf("%-24s %12v %9.2fx\n", fmt.Sprintf("cn w=%d", w), d, float64(seq)/float64(d))
	}
}

// discoveryTable is experiment T-B: discovery latency vs cluster size.
func discoveryTable(reps int) {
	header("T-B  JobManager multicast discovery latency")
	fmt.Printf("%-10s %16s %16s\n", "nodes", "first-responder", "best-fit(all)")
	for _, nodes := range []int{1, 4, 16, 64} {
		c, cl := startCluster(nodes)
		first := timeIt(reps, func() {
			if _, _, err := cl.DiscoverWith(discovery.FirstResponder{}, cn.JobRequirements{}); err != nil {
				log.Fatal(err)
			}
		})
		best := timeIt(reps, func() {
			if _, _, err := cl.DiscoverWith(discovery.BestFit{}, cn.JobRequirements{}); err != nil {
				log.Fatal(err)
			}
		})
		fmt.Printf("%-10d %16v %16v\n", nodes, first, best)
		cl.Close()
		c.Close()
	}
}

// messagingTable is experiment T-C: user message round-trip latency.
func messagingTable(reps int) {
	header("T-C  User message round trip (client -> JM -> task -> JM -> client)")
	c, cl := startCluster(3)
	defer c.Close()
	defer cl.Close()
	job, err := cl.CreateJob("echo", cn.JobRequirements{})
	if err != nil {
		log.Fatal(err)
	}
	if err := job.CreateTask(&cn.TaskSpec{
		Name: "echo", Class: "bench.Echo",
		Req: cn.Requirements{MemoryMB: 10, RunModel: cn.RunAsThreadInTM},
	}, nil); err != nil {
		log.Fatal(err)
	}
	if err := job.Start(); err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	fmt.Printf("%-12s %14s %14s\n", "payload", "median RTT", "msgs/sec")
	for _, size := range []int{64, 1024, 65536} {
		payload := make([]byte, size)
		const rounds = 200
		d := timeIt(reps, func() {
			for i := 0; i < rounds; i++ {
				if err := job.SendMessage("echo", payload); err != nil {
					log.Fatal(err)
				}
				if _, _, err := job.GetMessage(ctx); err != nil {
					log.Fatal(err)
				}
			}
		})
		perMsg := d / rounds
		fmt.Printf("%-12s %14v %14.0f\n", fmt.Sprintf("%dB", size), perMsg, float64(time.Second)/float64(perMsg))
	}
	_ = job.Cancel("bench done")
}

// placementRow is one configuration's measurement in the T-G study.
type placementRow struct {
	Mode         string  `json:"mode"`  // "pertask" or "batch"
	Nodes        int     `json:"nodes"` // cluster size
	Tasks        int     `json:"tasks"` // tasks per admitted job
	MedianMS     float64 `json:"median_admission_ms"`
	RoundsPerJob float64 `json:"solicit_rounds_per_job"`
	UploadsTotal int64   `json:"archive_uploads_total"`
	JobsAdmitted int     `json:"jobs_admitted"`
}

// localityRow is one phase of the cold-vs-warm re-admission study.
type localityRow struct {
	Phase          string  `json:"phase"` // "cold" or "warm"
	Nodes          int     `json:"nodes"`
	Tasks          int     `json:"tasks"`
	MedianMS       float64 `json:"median_admission_ms"`
	ArchiveUploads float64 `json:"archive_uploads_per_job"`
	WarmHits       int64   `json:"warm_hits"`
	BytesSavedPct  float64 `json:"archive_bytes_saved_pct"`
}

// placementSnapshot is the BENCH_placement.json document.
type placementSnapshot struct {
	Experiment  string         `json:"experiment"`
	GeneratedAt time.Time      `json:"generated_at"`
	Rows        []placementRow `json:"rows"`
	Locality    []localityRow  `json:"locality,omitempty"`
}

// placementTable is experiment T-G: admission of a 32-task single-archive
// job, per-task placement (one solicitation round per task, the
// pre-directory behavior) vs batch placement (one round for the whole
// set). Results are printed and snapshotted as JSON for trend tracking.
func placementTable(reps int, outPath string) {
	header("T-G  Batch placement vs per-task placement (32-task job admission)")
	const tasks = 32
	snap := placementSnapshot{Experiment: "T-G batch placement", GeneratedAt: time.Now().UTC()}
	fmt.Printf("%-10s %8s %14s %14s %16s\n", "mode", "nodes", "median", "rounds/job", "uploads(total)")
	for _, nodes := range []int{1, 8, 32} {
		for _, mode := range []struct {
			name  string
			batch bool
			ttl   time.Duration
		}{
			{"pertask", false, -1},
			{"batch", true, 0},
		} {
			c, err := cn.StartCluster(cn.ClusterOptions{
				Nodes: nodes, Registry: newRegistry(),
				MemoryMB: 64000, PlacementTTL: mode.ttl,
			})
			if err != nil {
				log.Fatal(err)
			}
			cl, err := cn.Connect(c, cn.ClientOptions{DiscoveryWindow: 20 * time.Millisecond})
			if err != nil {
				log.Fatal(err)
			}
			ar, err := cn.NewArchive("bench.jar", "bench.Noop").
				AddFile("payload.bin", make([]byte, 64<<10)).Build()
			if err != nil {
				log.Fatal(err)
			}
			jobs := 0
			d := timeIt(reps, func() {
				job, err := cl.CreateJob(fmt.Sprintf("adm-%d", jobs), cn.JobRequirements{})
				if err != nil {
					log.Fatal(err)
				}
				specs := make([]*cn.TaskSpec, tasks)
				for i := range specs {
					specs[i] = &cn.TaskSpec{
						Name: fmt.Sprintf("t%d", i), Class: "bench.Noop", Archive: ar.Name,
						Req: cn.Requirements{MemoryMB: 10, RunModel: cn.RunAsThreadInTM},
					}
				}
				if mode.batch {
					if _, err := job.CreateTasks(specs, map[string]*cn.Archive{ar.Name: ar}); err != nil {
						log.Fatal(err)
					}
				} else {
					for _, s := range specs {
						if err := job.CreateTask(s, ar); err != nil {
							log.Fatal(err)
						}
					}
				}
				if err := job.Cancel("admission bench"); err != nil {
					log.Fatal(err)
				}
				jobs++
			})
			row := placementRow{
				Mode:         mode.name,
				Nodes:        nodes,
				Tasks:        tasks,
				MedianMS:     float64(d) / float64(time.Millisecond),
				RoundsPerJob: float64(c.PlacementStats().SolicitRounds) / float64(jobs),
				UploadsTotal: c.BlobTransfers(),
				JobsAdmitted: jobs,
			}
			snap.Rows = append(snap.Rows, row)
			fmt.Printf("%-10s %8d %14v %14.2f %16d\n",
				mode.name, nodes, d, row.RoundsPerJob, row.UploadsTotal)
			cl.Close()
			c.Close()
		}
	}
	placementLocality(reps, &snap)
	raw, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(outPath, append(raw, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsnapshot written to %s\n", outPath)
}

// placementLocality is the cold-vs-warm half of the placement study: admit
// a 32-task single-archive job on a cold 8-node cluster (the archive ships
// to every chosen node), then re-admit jobs wanting the same digest. The
// locality scorer sees every node advertising the digest, so warm
// re-admission should beat cold and the archive should not cross the wire
// again — the bytes-saved percentage the snapshot records.
func placementLocality(reps int, snap *placementSnapshot) {
	const nodes, tasks = 8, 32
	header("T-G2  Cold vs warm re-admission (archive already resident)")
	// Per-round solicitation (negative TTL) so every admission scores
	// against offers that reflect the nodes' current blob caches.
	c, err := cn.StartCluster(cn.ClusterOptions{
		Nodes: nodes, Registry: newRegistry(),
		MemoryMB: 64000, PlacementTTL: -1,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	cl, err := cn.Connect(c, cn.ClientOptions{DiscoveryWindow: 20 * time.Millisecond})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	ar, err := cn.NewArchive("bench.jar", "bench.Noop").
		AddFile("payload.bin", make([]byte, 64<<10)).Build()
	if err != nil {
		log.Fatal(err)
	}
	jobs := 0
	admit := func() {
		job, err := cl.CreateJob(fmt.Sprintf("loc-%d", jobs), cn.JobRequirements{})
		if err != nil {
			log.Fatal(err)
		}
		jobs++
		specs := make([]*cn.TaskSpec, tasks)
		for i := range specs {
			specs[i] = &cn.TaskSpec{
				Name: fmt.Sprintf("t%d", i), Class: "bench.Noop", Archive: ar.Name,
				Req: cn.Requirements{MemoryMB: 10, RunModel: cn.RunAsThreadInTM},
			}
		}
		if _, err := job.CreateTasks(specs, map[string]*cn.Archive{ar.Name: ar}); err != nil {
			log.Fatal(err)
		}
		if err := job.Cancel("locality bench"); err != nil {
			log.Fatal(err)
		}
	}

	// Cold: a single admission on the fresh cluster — later repetitions
	// would find the caches warm, so this phase is one measurement.
	coldD := timeIt(1, admit)
	coldUploads := c.BlobTransfers()
	coldStats := c.PlacementStats()

	warmStart := jobs
	warmD := timeIt(reps, admit)
	warmJobs := jobs - warmStart
	warmUploads := c.BlobTransfers() - coldUploads
	warmStats := c.PlacementStats()

	savedPct := 100.0
	if coldUploads > 0 {
		savedPct = 100 * (1 - float64(warmUploads)/float64(warmJobs)/float64(coldUploads))
	}
	rows := []localityRow{
		{Phase: "cold", Nodes: nodes, Tasks: tasks,
			MedianMS:       float64(coldD) / float64(time.Millisecond),
			ArchiveUploads: float64(coldUploads),
			WarmHits:       coldStats.WarmHits},
		{Phase: "warm", Nodes: nodes, Tasks: tasks,
			MedianMS:       float64(warmD) / float64(time.Millisecond),
			ArchiveUploads: float64(warmUploads) / float64(warmJobs),
			WarmHits:       warmStats.WarmHits - coldStats.WarmHits,
			BytesSavedPct:  savedPct},
	}
	snap.Locality = append(snap.Locality, rows...)
	fmt.Printf("%-10s %8s %14s %16s %12s %12s\n",
		"phase", "nodes", "median", "uploads/job", "warm hits", "saved %")
	for _, r := range rows {
		fmt.Printf("%-10s %8d %14v %16.2f %12d %11.1f%%\n",
			r.Phase, r.Nodes, time.Duration(r.MedianMS*float64(time.Millisecond)),
			r.ArchiveUploads, r.WarmHits, r.BytesSavedPct)
	}
}

// recoveryRow is one heartbeat-interval configuration's measurement in the
// T-H study.
type recoveryRow struct {
	HeartbeatMS  float64 `json:"heartbeat_ms"`
	SuspectMS    float64 `json:"suspect_ms"`
	DeadMS       float64 `json:"dead_ms"`
	Nodes        int     `json:"nodes"`
	Tasks        int     `json:"tasks"`
	BaselineMS   float64 `json:"baseline_job_ms"`
	KilledMS     float64 `json:"killed_job_ms"`
	RecoveryMS   float64 `json:"time_to_recover_ms"`
	RetriesFinal int     `json:"retries_last_run"`
}

// recoverySnapshot is the BENCH_recovery.json document.
type recoverySnapshot struct {
	Experiment  string        `json:"experiment"`
	GeneratedAt time.Time     `json:"generated_at"`
	Rows        []recoveryRow `json:"rows"`
}

// recoveryJob runs one 32-task job on a fresh cluster with the given
// heartbeat interval, optionally power-cutting a worker mid-flight, and
// returns the job's start-to-done duration plus the client-observed retry
// count. Each run boots its own cluster: a killed node stays dead.
func recoveryJob(hb time.Duration, tasks int, kill bool) (time.Duration, int) {
	c, err := cn.StartCluster(cn.ClusterOptions{
		Nodes: 8, Registry: newRegistry(), MemoryMB: 64000,
		HeartbeatInterval: hb, MaxTaskRetries: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	cl, err := cn.Connect(c, cn.ClientOptions{DiscoveryWindow: 20 * time.Millisecond})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	job, err := cl.CreateJob("recovery", cn.JobRequirements{})
	if err != nil {
		log.Fatal(err)
	}
	specs := make([]*cn.TaskSpec, tasks)
	for i := range specs {
		specs[i] = &cn.TaskSpec{
			Name: fmt.Sprintf("r%02d", i), Class: "bench.Sleep",
			Req: cn.Requirements{MemoryMB: 10, RunModel: cn.RunAsThreadInTM},
		}
	}
	placements, err := job.CreateTasks(specs, nil)
	if err != nil {
		log.Fatal(err)
	}
	victim := ""
	for _, node := range placements {
		if node != job.JMNode {
			victim = node
			break
		}
	}
	start := time.Now()
	if err := job.Start(); err != nil {
		log.Fatal(err)
	}
	if kill && victim != "" {
		time.Sleep(15 * time.Millisecond)
		if err := c.KillNode(victim); err != nil {
			log.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := job.Wait(ctx)
	if err != nil || res.Failed {
		log.Fatalf("recovery job: res=%+v err=%v", res, err)
	}
	return time.Since(start), job.Progress().Retried
}

// recoveryTable is experiment T-H: time-to-recover vs heartbeat interval.
// An 8-node cluster runs a 32-task job; a worker hosting tasks is
// power-cut 15ms in. Time-to-recover is the killed run's duration minus
// the no-kill baseline — the price of detection (≈ DeadAfter = 6×interval)
// plus re-placement and re-execution.
func recoveryTable(reps int, outPath string) {
	header("T-H  Failure recovery: 32-task job, 8 nodes, worker killed mid-run")
	const tasks = 32
	snap := recoverySnapshot{Experiment: "T-H failure recovery", GeneratedAt: time.Now().UTC()}
	fmt.Printf("%-14s %12s %12s %14s %10s\n", "heartbeat", "baseline", "with kill", "recovery", "retries")
	for _, hb := range []time.Duration{
		5 * time.Millisecond, 10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
	} {
		// Mean of the job window only (cluster boot excluded), so baseline
		// and killed runs are directly comparable.
		var retries int
		var baseMS, killMS float64
		for i := 0; i < reps; i++ {
			d, _ := recoveryJob(hb, tasks, false)
			baseMS += float64(d) / float64(time.Millisecond)
		}
		baseMS /= float64(reps)
		for i := 0; i < reps; i++ {
			d, r := recoveryJob(hb, tasks, true)
			killMS += float64(d) / float64(time.Millisecond)
			retries = r
		}
		killMS /= float64(reps)
		row := recoveryRow{
			HeartbeatMS:  float64(hb) / float64(time.Millisecond),
			SuspectMS:    float64(3*hb) / float64(time.Millisecond),
			DeadMS:       float64(6*hb) / float64(time.Millisecond),
			Nodes:        8,
			Tasks:        tasks,
			BaselineMS:   baseMS,
			KilledMS:     killMS,
			RecoveryMS:   killMS - baseMS,
			RetriesFinal: retries,
		}
		snap.Rows = append(snap.Rows, row)
		fmt.Printf("%-14v %11.1fms %11.1fms %13.1fms %10d\n",
			hb, row.BaselineMS, row.KilledMS, row.RecoveryMS, row.RetriesFinal)
	}
	raw, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(outPath, append(raw, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsnapshot written to %s\n", outPath)
}

// tuplespaceRow is one worker-count configuration's measurement in the
// T-I study.
type tuplespaceRow struct {
	Workers     int     `json:"workers"`
	Nodes       int     `json:"nodes"`
	Items       int     `json:"items"`
	TSOps       int     `json:"ts_ops"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	WakeupP50MS float64 `json:"wakeup_p50_ms"`
	WakeupP99MS float64 `json:"wakeup_p99_ms"`
}

// tuplespaceSnapshot is the BENCH_tuplespace.json document.
type tuplespaceSnapshot struct {
	Experiment  string          `json:"experiment"`
	GeneratedAt time.Time       `json:"generated_at"`
	Rows        []tuplespaceRow `json:"rows"`
}

// tuplespaceTable is experiment T-I: tuple-space coordination throughput
// and blocking-op wakeup latency vs worker count. A replicated worker
// pool steals ("work", v) items from the job's space over the wire and
// answers ("res", v). Throughput drains a full bag; wakeup latency is the
// round trip of one Out into a pool of parked In waiters (client Out →
// worker wakes → worker Out → client In). Op counts come from the
// JobManager's ts_ops census, so the figure is the wire truth, not an
// estimate.
func tuplespaceTable(reps int, outPath string) {
	header("T-I  Tuple-space coordination: bag drain + blocked-In wakeup (4-node cluster)")
	const items = 256
	const wakeupRounds = 50
	snap := tuplespaceSnapshot{Experiment: "T-I tuplespace coordination", GeneratedAt: time.Now().UTC()}
	fmt.Printf("%-10s %10s %12s %14s %14s\n", "workers", "ts_ops", "ops/sec", "wakeup p50", "wakeup p99")
	for _, w := range []int{1, 2, 4, 8} {
		c, cl := startCluster(4)
		job, err := cl.CreateJob(fmt.Sprintf("ts-%d", w), cn.JobRequirements{})
		if err != nil {
			log.Fatal(err)
		}
		specs := make([]*cn.TaskSpec, w)
		for i := range specs {
			specs[i] = &cn.TaskSpec{
				Name: fmt.Sprintf("w%d", i), Class: "bench.TSWorker",
				Req: cn.Requirements{MemoryMB: 10, RunModel: cn.RunAsThreadInTM},
			}
		}
		if _, err := job.CreateTasks(specs, nil); err != nil {
			log.Fatal(err)
		}
		if err := job.Start(); err != nil {
			log.Fatal(err)
		}
		space := job.Space()
		ctx := context.Background()
		// Tuple delivery is at-most-once; like every bag-of-tasks client,
		// the bench drains under a per-attempt deadline and re-seeds
		// unanswered items so a rare lost reply costs a retry, not a hang.
		drain := func(pending map[int]bool) {
			deadline := time.Now().Add(60 * time.Second)
			for len(pending) > 0 {
				if time.Now().After(deadline) {
					log.Fatalf("tuplespace bench stalled; %d items outstanding", len(pending))
				}
				ictx, icancel := context.WithTimeout(ctx, 5*time.Second)
				tu, err := space.In(ictx, cn.Template{"res", cn.TypeOf(0)})
				icancel()
				if err != nil {
					for v := range pending {
						if err := space.Out(cn.Tuple{"work", v}); err != nil {
							log.Fatal(err)
						}
					}
					continue
				}
				delete(pending, tu[1].(int)) // duplicate answers just miss
			}
		}

		// Throughput: seed the whole bag, drain every result.
		start := time.Now()
		for r := 0; r < reps; r++ {
			pending := make(map[int]bool, items)
			for i := 0; i < items; i++ {
				pending[i] = true
				if err := space.Out(cn.Tuple{"work", i}); err != nil {
					log.Fatal(err)
				}
			}
			drain(pending)
		}
		thDur := time.Since(start)
		prog, ok := c.JobProgress(job.JMNode, job.ID)
		if !ok {
			log.Fatalf("no census for job %s", job.ID)
		}

		// Wakeup latency: with the bag empty every worker is parked in In;
		// one Out must wake exactly one of them.
		h := metrics.NewHistogram(wakeupRounds + 1)
		for r := 0; r < wakeupRounds; r++ {
			v := items*reps + r
			t0 := time.Now()
			if err := space.Out(cn.Tuple{"work", v}); err != nil {
				log.Fatal(err)
			}
			drain(map[int]bool{v: true})
			h.ObserveDuration(time.Since(t0))
		}

		// Poison the pool and let the job terminate (closing the space).
		for i := 0; i < w; i++ {
			if err := space.Out(cn.Tuple{"work", -1}); err != nil {
				log.Fatal(err)
			}
		}
		wctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		if _, err := job.Wait(wctx); err != nil {
			log.Fatal(err)
		}
		cancel()

		row := tuplespaceRow{
			Workers:     w,
			Nodes:       4,
			Items:       items * reps,
			TSOps:       prog.TSOps,
			OpsPerSec:   float64(prog.TSOps) / thDur.Seconds(),
			WakeupP50MS: h.Quantile(0.5),
			WakeupP99MS: h.Quantile(0.99),
		}
		snap.Rows = append(snap.Rows, row)
		fmt.Printf("%-10d %10d %12.0f %12.2fms %12.2fms\n",
			w, row.TSOps, row.OpsPerSec, row.WakeupP50MS, row.WakeupP99MS)
		cl.Close()
		c.Close()
	}
	raw, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(outPath, append(raw, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsnapshot written to %s\n", outPath)
}

// durabilityAppendRow is one fsync-mode configuration's WAL append latency.
type durabilityAppendRow struct {
	Mode    string  `json:"mode"` // "fsync" or "nosync"
	Records int     `json:"records"`
	P50US   float64 `json:"append_p50_us"`
	P99US   float64 `json:"append_p99_us"`
}

// durabilityReplayRow is one log-size configuration's cold replay cost.
type durabilityReplayRow struct {
	Records  int     `json:"records"`
	WALBytes int64   `json:"wal_bytes"`
	ReplayMS float64 `json:"replay_ms"`
}

// durabilityFailoverRow summarizes the JobManager failover study.
type durabilityFailoverRow struct {
	Nodes        int     `json:"nodes"`
	Tasks        int     `json:"tasks"`
	CheckpointMS float64 `json:"checkpoint_every_ms"`
	AdoptMeanMS  float64 `json:"time_to_adopt_mean_ms"`
	AdoptMaxMS   float64 `json:"time_to_adopt_max_ms"`
	FinishMeanMS float64 `json:"kill_to_finish_mean_ms"`
	RetriesFinal int     `json:"retries_last_run"`
	Runs         int     `json:"runs"`
}

// durabilitySnapshot is the BENCH_durability.json document.
type durabilitySnapshot struct {
	Experiment  string                `json:"experiment"`
	GeneratedAt time.Time             `json:"generated_at"`
	Append      []durabilityAppendRow `json:"append"`
	Replay      []durabilityReplayRow `json:"replay"`
	Failover    durabilityFailoverRow `json:"failover"`
}

// durabilityWAL opens a WAL in a fresh scratch directory and returns a
// cleanup that removes it.
func durabilityWAL(nosync bool) (*jobstore.WAL, func()) {
	dir, err := os.MkdirTemp("", "cnbench-wal-*")
	if err != nil {
		log.Fatal(err)
	}
	w, err := jobstore.OpenWAL(dir, jobstore.WALOptions{NoSync: nosync})
	if err != nil {
		log.Fatal(err)
	}
	return w, func() {
		w.Close()
		os.RemoveAll(dir)
	}
}

func durabilityPut(w *jobstore.WAL, i int, body []byte) {
	if err := w.Put(&jobstore.PersistedJob{
		ID: fmt.Sprintf("job-%d", i+1), Seq: int64(i + 1),
		Sub:   jobstore.Submission{Format: jobstore.FormatCNX, Body: body, Label: "bench"},
		State: jobstore.StateQueued,
	}); err != nil {
		log.Fatal(err)
	}
}

// durabilityFailover runs one JM-kill round: a 4-node cluster hosts a job
// of long tasks, the hosting JobManager is power-cut mid-job, and the run
// reports kill-to-adoption (the client observing its handle re-pointed)
// and kill-to-finish latencies plus the final retry count.
func durabilityFailover(tasks int, checkpoint time.Duration) (adopt, finish time.Duration, retried int) {
	c, err := cn.StartCluster(cn.ClusterOptions{
		Nodes: 4, Registry: newRegistry(), MemoryMB: 64000,
		HeartbeatInterval: 10 * time.Millisecond,
		MaxTaskRetries:    3,
		CheckpointEvery:   checkpoint,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	cl, err := cn.Connect(c, cn.ClientOptions{DiscoveryWindow: 20 * time.Millisecond})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	job, err := cl.CreateJob("durable", cn.JobRequirements{})
	if err != nil {
		log.Fatal(err)
	}
	specs := make([]*cn.TaskSpec, tasks)
	for i := range specs {
		specs[i] = &cn.TaskSpec{
			Name: fmt.Sprintf("d%02d", i), Class: "bench.SleepLong",
			Req: cn.Requirements{MemoryMB: 10, RunModel: cn.RunAsThreadInTM},
		}
	}
	if _, err := job.CreateTasks(specs, nil); err != nil {
		log.Fatal(err)
	}
	if err := job.Start(); err != nil {
		log.Fatal(err)
	}
	origin := job.Manager()
	// Let at least two checkpoint ticks replicate the started schedule.
	time.Sleep(50 * time.Millisecond)
	t0 := time.Now()
	if err := c.KillNode(origin); err != nil {
		log.Fatal(err)
	}
	for job.Manager() == origin {
		if time.Since(t0) > 30*time.Second {
			log.Fatal("durability: adoption never observed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	adopt = time.Since(t0)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := job.Wait(ctx)
	if err != nil || res.Failed {
		log.Fatalf("durability job after failover: res=%+v err=%v", res, err)
	}
	return adopt, time.Since(t0), job.Progress().Retried
}

// durabilityTable is experiment T-J: the durable control plane's costs.
// Left side: what persistence charges the submit path (WAL append latency
// with and without fsync) and the reboot path (cold replay vs log size).
// Right side: what failover delivers — time from JobManager power-cut to
// the client observing adoption, and to the job finishing on the survivor.
func durabilityTable(reps int, outPath string) {
	header("T-J  Durable control plane: WAL append/replay + JobManager failover")
	snap := durabilitySnapshot{Experiment: "T-J durability", GeneratedAt: time.Now().UTC()}
	body := make([]byte, 512)

	const appends = 512
	fmt.Printf("%-10s %10s %14s %14s\n", "mode", "records", "append p50", "append p99")
	for _, mode := range []struct {
		name   string
		nosync bool
	}{{"fsync", false}, {"nosync", true}} {
		w, cleanup := durabilityWAL(mode.nosync)
		h := metrics.NewHistogram(appends + 1)
		for i := 0; i < appends; i++ {
			t0 := time.Now()
			durabilityPut(w, i, body)
			h.ObserveDuration(time.Since(t0))
		}
		cleanup()
		row := durabilityAppendRow{
			Mode: mode.name, Records: appends,
			P50US: h.Quantile(0.5) * 1000, P99US: h.Quantile(0.99) * 1000,
		}
		snap.Append = append(snap.Append, row)
		fmt.Printf("%-10s %10d %12.0fµs %12.0fµs\n", row.Mode, row.Records, row.P50US, row.P99US)
	}

	fmt.Printf("\n%-10s %12s %12s\n", "records", "wal bytes", "replay")
	for _, n := range []int{1024, 4096, 16384} {
		dir, err := os.MkdirTemp("", "cnbench-wal-*")
		if err != nil {
			log.Fatal(err)
		}
		w, err := jobstore.OpenWAL(dir, jobstore.WALOptions{NoSync: true})
		if err != nil {
			log.Fatal(err)
		}
		for i := 0; i < n; i++ {
			durabilityPut(w, i, body)
		}
		if err := w.Close(); err != nil {
			log.Fatal(err)
		}
		var size int64
		entries, err := os.ReadDir(dir)
		if err != nil {
			log.Fatal(err)
		}
		for _, e := range entries {
			if fi, err := e.Info(); err == nil {
				size += fi.Size()
			}
		}
		t0 := time.Now()
		w2, err := jobstore.OpenWAL(dir, jobstore.WALOptions{})
		if err != nil {
			log.Fatal(err)
		}
		pjs, err := w2.Load()
		if err != nil {
			log.Fatal(err)
		}
		d := time.Since(t0)
		if len(pjs) != n {
			log.Fatalf("replayed %d of %d records", len(pjs), n)
		}
		w2.Close()
		os.RemoveAll(dir)
		row := durabilityReplayRow{Records: n, WALBytes: size, ReplayMS: float64(d) / float64(time.Millisecond)}
		snap.Replay = append(snap.Replay, row)
		fmt.Printf("%-10d %12d %11.2fms\n", row.Records, row.WALBytes, row.ReplayMS)
	}

	const tasks = 8
	checkpoint := 20 * time.Millisecond
	var adoptSum, adoptMax, finishSum time.Duration
	var retries int
	for i := 0; i < reps; i++ {
		adopt, finish, r := durabilityFailover(tasks, checkpoint)
		adoptSum += adopt
		finishSum += finish
		if adopt > adoptMax {
			adoptMax = adopt
		}
		retries = r
	}
	snap.Failover = durabilityFailoverRow{
		Nodes: 4, Tasks: tasks,
		CheckpointMS: float64(checkpoint) / float64(time.Millisecond),
		AdoptMeanMS:  float64(adoptSum) / float64(reps) / float64(time.Millisecond),
		AdoptMaxMS:   float64(adoptMax) / float64(time.Millisecond),
		FinishMeanMS: float64(finishSum) / float64(reps) / float64(time.Millisecond),
		RetriesFinal: retries,
		Runs:         reps,
	}
	fmt.Printf("\n%-28s %12s %12s %12s\n", "failover (kill JM mid-job)", "adopt mean", "adopt max", "finish mean")
	fmt.Printf("%-28s %10.1fms %10.1fms %10.1fms\n",
		fmt.Sprintf("%d nodes, %d tasks, ckpt %v", 4, tasks, checkpoint),
		snap.Failover.AdoptMeanMS, snap.Failover.AdoptMaxMS, snap.Failover.FinishMeanMS)

	raw, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(outPath, append(raw, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsnapshot written to %s\n", outPath)
}

// shuffleParams reads the shuffle workers' shared parameter list.
func shuffleParams(ctx cn.TaskContext) (peers, size int, err error) {
	ps := ctx.Params()
	if len(ps) < 2 {
		return 0, 0, fmt.Errorf("shuffle worker: want 2 params, have %d", len(ps))
	}
	if peers, err = ps[0].Int(); err != nil {
		return 0, 0, err
	}
	if size, err = ps[1].Int(); err != nil {
		return 0, 0, err
	}
	return peers, size, nil
}

// shufflePayload is deterministic per worker, so every worker's output has
// a distinct digest — no cross-key dedup in the node blob caches.
func shufflePayload(name string, size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = name[i%len(name)] ^ byte(i)
	}
	return b
}

// shuffleIntParam formats an integer task parameter for the shuffle specs.
func shuffleIntParam(v int) cn.Param {
	return cn.Param{Type: cn.TypeInteger, Value: strconv.Itoa(v)}
}

// shuffleRow is one (mode, cluster size) measurement in the T-K study.
type shuffleRow struct {
	Mode           string  `json:"mode"`  // "sendrelay" or "dataplane"
	Nodes          int     `json:"nodes"` // cluster size
	Workers        int     `json:"workers"`
	Fabric         string  `json:"fabric,omitempty"`        // set on the large-payload row only ("tcp")
	PayloadBytes   int     `json:"payload_bytes,omitempty"` // set where it differs from the snapshot's
	ShuffleBytes   int64   `json:"shuffle_bytes_per_run"`
	MedianMS       float64 `json:"median_ms"`
	ThroughputMBs  float64 `json:"throughput_mb_per_sec"`
	JMPayloadBytes int64   `json:"jm_payload_bytes_per_run"`
	TMDirectBytes  int64   `json:"tm_direct_bytes_per_run"`
}

// shuffleSnapshot is the BENCH_shuffle.json document.
type shuffleSnapshot struct {
	Experiment     string       `json:"experiment"`
	GeneratedAt    time.Time    `json:"generated_at"`
	PayloadBytes   int          `json:"payload_bytes"`
	Rows           []shuffleRow `json:"rows"`
	Speedup1to8    float64      `json:"dataplane_throughput_gain_1_to_8_nodes"`
	JMReductionPct float64      `json:"jm_payload_reduction_pct_8_nodes"`
}

// runShuffleJob admits and runs one all-to-all job of `workers` tasks of
// the given class, waiting for every worker to finish.
func runShuffleJob(cl *cn.Client, class string, workers, size, run int) {
	job, err := cl.CreateJob(fmt.Sprintf("shuf-%d", run), cn.JobRequirements{})
	if err != nil {
		log.Fatal(err)
	}
	specs := make([]*cn.TaskSpec, workers)
	for i := range specs {
		specs[i] = &cn.TaskSpec{
			Name: fmt.Sprintf("s%d", i+1), Class: class,
			Params: []cn.Param{shuffleIntParam(workers), shuffleIntParam(size)},
			Req:    cn.Requirements{MemoryMB: 10, RunModel: cn.RunAsThreadInTM},
		}
	}
	if _, err := job.CreateTasks(specs, nil); err != nil {
		log.Fatal(err)
	}
	if err := job.Start(); err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	res, err := job.Wait(ctx)
	if err != nil || res.Failed {
		log.Fatalf("shuffle job (%s, %d workers): res=%+v err=%v", class, workers, res, err)
	}
}

// shuffleTable is experiment T-K: an all-to-all shuffle (weak scaling, 4
// workers per node, 64 KiB per output, plus one 3 MiB-output row on TCP)
// over the direct task-to-task data plane vs the Send-relay baseline. The
// dataplane rows measure the
// JobManager's payload bytes directly (the broker's inline-copy counter —
// the only payload bytes a manager ever serves); the sendrelay rows charge
// the JM the full shuffle volume, which is exact by construction: every
// USER payload routes producer -> JM -> consumer mailbox. TM-direct bytes
// are the payload bytes that moved producer-node -> consumer-node without
// touching the manager (same-node consumers hit the shared blob cache and
// cost no wire at all).
func shuffleTable(reps int, outPath string) {
	header("T-K  All-to-all shuffle: direct data plane vs Send relay (4 workers/node, 64KiB outputs)")
	const size = 64 << 10
	snap := shuffleSnapshot{Experiment: "T-K shuffle data plane", GeneratedAt: time.Now().UTC(), PayloadBytes: size}
	fmt.Printf("%-11s %6s %8s %12s %10s %16s %16s\n",
		"mode", "nodes", "workers", "median", "MB/s", "JM bytes/run", "TM-direct/run")
	var dpTh1, dpTh8 float64
	var jmSend8, jmDP8 int64
	for _, nodes := range []int{1, 2, 4, 8} {
		workers := 4 * nodes
		shuffleBytes := int64(workers) * int64(workers) * size
		for _, mode := range []struct {
			name  string
			class string
		}{{"sendrelay", "bench.Relay"}, {"dataplane", "bench.Shuffle"}} {
			c, cl := startCluster(nodes)
			runs := 0
			d := timeIt(reps, func() {
				runShuffleJob(cl, mode.class, workers, size, runs)
				runs++
			})
			row := shuffleRow{
				Mode: mode.name, Nodes: nodes, Workers: workers,
				ShuffleBytes:  shuffleBytes,
				MedianMS:      float64(d) / float64(time.Millisecond),
				ThroughputMBs: float64(shuffleBytes) / (1 << 20) / d.Seconds(),
			}
			if mode.name == "dataplane" {
				_, fetched := c.DataplaneBytes()
				row.JMPayloadBytes = c.DataplaneStats().InlineBytes / int64(runs)
				row.TMDirectBytes = fetched / int64(runs)
				if nodes == 1 {
					dpTh1 = row.ThroughputMBs
				}
				if nodes == 8 {
					dpTh8 = row.ThroughputMBs
					jmDP8 = row.JMPayloadBytes
				}
			} else {
				row.JMPayloadBytes = shuffleBytes
				if nodes == 8 {
					jmSend8 = row.JMPayloadBytes
				}
			}
			snap.Rows = append(snap.Rows, row)
			fmt.Printf("%-11s %6d %8d %12v %10.0f %16d %16d\n",
				row.Mode, row.Nodes, row.Workers, d, row.ThroughputMBs,
				row.JMPayloadBytes, row.TMDirectBytes)
			cl.Close()
			c.Close()
		}
	}
	snap.Rows = append(snap.Rows, shuffleLargeRow(reps))
	if dpTh1 > 0 {
		snap.Speedup1to8 = dpTh8 / dpTh1
	}
	if jmSend8 > 0 {
		snap.JMReductionPct = 100 * (1 - float64(jmDP8)/float64(jmSend8))
	}
	fmt.Printf("\ndataplane throughput gain 1->8 nodes: %.2fx; JM payload byte reduction at 8 nodes: %.1f%%\n",
		snap.Speedup1to8, snap.JMReductionPct)
	raw, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(outPath, append(raw, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("snapshot written to %s\n", outPath)
}

// shuffleLargeRow is the study's large-payload row: the same all-to-all
// job with 3 MiB outputs — four chunks a pull, what the chunk stream's
// copy-free path is for — on 2 nodes over real sockets. The Send relay has
// no such row: a USER payload cannot exceed one frame.
func shuffleLargeRow(reps int) shuffleRow {
	const (
		nodes   = 2
		workers = 4 * nodes
		size    = 3 << 20
	)
	c, err := cn.StartCluster(cn.ClusterOptions{Nodes: nodes, Registry: newRegistry(), MemoryMB: 64000, TCP: true})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	cl, err := cn.Connect(c, cn.ClientOptions{DiscoveryWindow: 50 * time.Millisecond})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	runs := 0
	d := timeIt(reps, func() {
		runShuffleJob(cl, "bench.Shuffle", workers, size, runs)
		runs++
	})
	_, fetched := c.DataplaneBytes()
	shuffleBytes := int64(workers) * int64(workers) * size
	row := shuffleRow{
		Mode: "dataplane", Nodes: nodes, Workers: workers, Fabric: "tcp", PayloadBytes: size,
		ShuffleBytes:   shuffleBytes,
		MedianMS:       float64(d) / float64(time.Millisecond),
		ThroughputMBs:  float64(shuffleBytes) / (1 << 20) / d.Seconds(),
		JMPayloadBytes: c.DataplaneStats().InlineBytes / int64(runs),
		TMDirectBytes:  fetched / int64(runs),
	}
	fmt.Printf("%-11s %6d %8d %12v %10.0f %16d %16d   (3 MiB outputs, tcp)\n",
		row.Mode, row.Nodes, row.Workers, d, row.ThroughputMBs, row.JMPayloadBytes, row.TMDirectBytes)
	return row
}

// traceRow is one sampling mode's measurement in the T-L tracing study.
type traceRow struct {
	Mode            string  `json:"mode"`   // "off", "sampled", "always"
	Sample          float64 `json:"sample"` // root sampling probability
	AdmissionP50us  float64 `json:"admission_p50_us"`
	AdmissionP95us  float64 `json:"admission_p95_us"`
	ShuffleMedianMS float64 `json:"shuffle_median_ms"`
}

// traceSnapshot is the BENCH_trace.json document.
type traceSnapshot struct {
	Experiment           string     `json:"experiment"`
	GeneratedAt          time.Time  `json:"generated_at"`
	AdmissionsPerMode    int        `json:"admissions_per_mode"`
	AdmissionTasks       int        `json:"admission_tasks_per_job"`
	ShuffleWorkers       int        `json:"shuffle_workers"`
	ShufflePayloadBytes  int        `json:"shuffle_payload_bytes"`
	Rows                 []traceRow `json:"rows"`
	AdmissionOverheadPct float64    `json:"admission_overhead_pct_at_default_rate"`
	AlwaysOverheadPct    float64    `json:"admission_overhead_pct_always_on"`
}

// admitJob measures one job admission — CreateJob through the Start ack,
// the window where trace contexts are minted, stamped on every control
// message, and client spans are drained into the StartJobReq. The job
// itself (noop tasks) runs and is reaped outside the timed window.
func admitJob(cl *cn.Client, tasks, run int) time.Duration {
	start := time.Now()
	job, err := cl.CreateJob(fmt.Sprintf("adm-%d", run), cn.JobRequirements{})
	if err != nil {
		log.Fatal(err)
	}
	specs := make([]*cn.TaskSpec, tasks)
	for i := range specs {
		specs[i] = &cn.TaskSpec{
			Name: fmt.Sprintf("t%d", i+1), Class: "bench.Noop",
			Req: cn.Requirements{MemoryMB: 10, RunModel: cn.RunAsThreadInTM},
		}
	}
	if _, err := job.CreateTasks(specs, nil); err != nil {
		log.Fatal(err)
	}
	if err := job.Start(); err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if res, err := job.Wait(ctx); err != nil || res.Failed {
		log.Fatalf("admission job %d: res=%+v err=%v", run, res, err)
	}
	return elapsed
}

// traceTable is experiment T-L: what does distributed tracing cost? The
// same admission and shuffle workloads run with tracing off (negative
// sample), at the default 1-in-8 rate, and always-on; the acceptance
// target is <= 5% admission overhead at the default rate. Tracing rides
// the existing wire envelope (three uvarints when a context is present,
// nothing when absent), so the off row doubles as the regression
// baseline for the envelope change itself.
func traceTable(reps int, outPath string) {
	header("T-L  Distributed tracing overhead: admission + shuffle, off / sampled / always")
	const (
		admissionTasks = 4
		shuffleWorkers = 8
		shuffleSize    = 64 << 10
		nodes          = 4
	)
	admissions := 20 * reps
	snap := traceSnapshot{
		Experiment: "T-L tracing overhead", GeneratedAt: time.Now().UTC(),
		AdmissionsPerMode: admissions, AdmissionTasks: admissionTasks,
		ShuffleWorkers: shuffleWorkers, ShufflePayloadBytes: shuffleSize,
	}
	fmt.Printf("%-9s %8s %14s %14s %14s\n", "mode", "sample", "admit p50", "admit p95", "shuffle median")
	var offP50 float64
	for _, mode := range []struct {
		name   string
		sample float64 // cluster knob: negative disables, 0 = default 1/8
		client float64 // client root sampling for the same mode
	}{{"off", -1, -1}, {"sampled", 0, 0.125}, {"always", 1, 1}} {
		c, err := cn.StartCluster(cn.ClusterOptions{
			Nodes: nodes, Registry: newRegistry(), MemoryMB: 64000,
			TraceSample: mode.sample,
		})
		if err != nil {
			log.Fatal(err)
		}
		var tracer *trace.Tracer
		if mode.sample >= 0 {
			tracer = cn.NewTracer("bench-client", mode.client)
		}
		cl, err := cn.Connect(c, cn.ClientOptions{
			DiscoveryWindow: 20 * time.Millisecond, Tracer: tracer,
		})
		if err != nil {
			log.Fatal(err)
		}
		h := metrics.NewHistogram(admissions + 1)
		for run := 0; run < admissions; run++ {
			h.ObserveDuration(admitJob(cl, admissionTasks, run))
		}
		runs := 0
		d := timeIt(reps, func() {
			runShuffleJob(cl, "bench.Shuffle", shuffleWorkers, shuffleSize, runs)
			runs++
		})
		row := traceRow{
			Mode: mode.name, Sample: mode.client,
			AdmissionP50us:  h.Quantile(0.5) * 1000,
			AdmissionP95us:  h.Quantile(0.95) * 1000,
			ShuffleMedianMS: float64(d) / float64(time.Millisecond),
		}
		snap.Rows = append(snap.Rows, row)
		switch mode.name {
		case "off":
			offP50 = row.AdmissionP50us
		case "sampled":
			if offP50 > 0 {
				snap.AdmissionOverheadPct = 100 * (row.AdmissionP50us - offP50) / offP50
			}
		case "always":
			if offP50 > 0 {
				snap.AlwaysOverheadPct = 100 * (row.AdmissionP50us - offP50) / offP50
			}
		}
		fmt.Printf("%-9s %8.3f %12.0fus %12.0fus %12.2fms\n",
			row.Mode, row.Sample, row.AdmissionP50us, row.AdmissionP95us, row.ShuffleMedianMS)
		cl.Close()
		c.Close()
	}
	fmt.Printf("\nadmission p50 overhead vs off: %.1f%% at default rate (target <= 5%%), %.1f%% always-on\n",
		snap.AdmissionOverheadPct, snap.AlwaysOverheadPct)
	raw, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(outPath, append(raw, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("snapshot written to %s\n", outPath)
}

// transformTable is experiment T-D: XMI2CNX throughput vs model size.
func transformTable(reps int) {
	header("T-D  XMI2CNX transformation vs model size")
	fmt.Printf("%-12s %12s %14s\n", "tasks", "XMI bytes", "median")
	for _, tasks := range []int{10, 100, 500} {
		g, err := floyd.BuildModel(tasks)
		if err != nil {
			log.Fatal(err)
		}
		model := cn.NewClientModel("TransClosure")
		if err := model.AddJob(g); err != nil {
			log.Fatal(err)
		}
		xdoc, err := cn.ModelToXMI(model)
		if err != nil {
			log.Fatal(err)
		}
		xmlText, err := xdoc.WriteString()
		if err != nil {
			log.Fatal(err)
		}
		d := timeIt(reps, func() {
			var out strings.Builder
			if err := cn.XMI2CNX(strings.NewReader(xmlText), &out, cn.TransformOptions{}); err != nil {
				log.Fatal(err)
			}
		})
		fmt.Printf("%-12d %12d %14v\n", tasks, len(xmlText), d)
	}
}
