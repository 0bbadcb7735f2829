// Micro benchmarks of the public API: one per paper figure (Fig 1-7), the
// quantitative studies T-A..T-H and T-J, and ablations. The end-to-end
// benchmark, whose rows BENCHMARK.json declares, is bench/ (bench/README.md).
package cn_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"cn"
	"cn/internal/discovery"
	"cn/internal/floyd"
	"cn/internal/tuplespace"
	"cn/internal/workloads"
)

func init() {
	pubRegistry.MustRegister("bench.Sleep", sleepTask(60*time.Millisecond))
	pubRegistry.MustRegister("bench.SleepLong", sleepTask(400*time.Millisecond))
	pubRegistry.MustRegister("bench.EchoLoop", func() cn.Task {
		return cn.TaskFunc(func(ctx cn.TaskContext) error {
			for {
				_, data, err := ctx.Recv()
				if err != nil {
					return nil // job cancelled: clean exit
				}
				if err := ctx.SendClient(data); err != nil {
					return err
				}
			}
		})
	})
}

// sleepTask is a task that computes for d, polling Done so that a copy
// cancelled by recovery exits promptly.
func sleepTask(d time.Duration) func() cn.Task {
	return func() cn.Task {
		return cn.TaskFunc(func(ctx cn.TaskContext) error {
			for deadline := time.Now().Add(d); time.Now().Before(deadline) && !ctx.Done(); {
				time.Sleep(2 * time.Millisecond)
			}
			return nil
		})
	}
}

// startBench boots a cluster of opts, on the benchmarks' registry with
// 64 GB nodes, and connects a client; stop tears both down.
func startBench(b *testing.B, opts cn.ClusterOptions) (c *cn.Cluster, cl *cn.Client, stop func()) {
	b.Helper()
	opts.Registry, opts.MemoryMB = pubRegistry, 64000
	c, err := cn.StartCluster(opts)
	if err != nil {
		b.Fatal(err)
	}
	cl, err = cn.Connect(c, cn.ClientOptions{DiscoveryWindow: 20 * time.Millisecond})
	if err != nil {
		c.Close()
		b.Fatal(err)
	}
	return c, cl, func() { cl.Close(); c.Close() }
}

// benchCluster is startBench for a cluster that lives until b ends.
func benchCluster(b *testing.B, opts cn.ClusterOptions) (*cn.Cluster, *cn.Client) {
	b.Helper()
	c, cl, stop := startBench(b, opts)
	b.Cleanup(stop)
	return c, cl
}

func noopSpec(name string, deps ...string) *cn.TaskSpec {
	return &cn.TaskSpec{
		Name:      name,
		Class:     "pub.Noop",
		DependsOn: deps,
		Req:       cn.Requirements{MemoryMB: 10, RunModel: cn.RunAsThreadInTM},
	}
}

// forkJoinSpecs builds a split -> W workers -> join no-op job.
func forkJoinSpecs(workers int) []*cn.TaskSpec {
	specs := []*cn.TaskSpec{noopSpec("split")}
	var names []string
	for i := 1; i <= workers; i++ {
		name := fmt.Sprintf("w%d", i)
		names = append(names, name)
		specs = append(specs, noopSpec(name, "split"))
	}
	specs = append(specs, noopSpec("join", names...))
	return specs
}

// --- Figure benches -------------------------------------------------------

// BenchmarkFig1ServerBoot measures booting and stopping the Figure 1
// component stack (4 CN servers + discovery groups).
func BenchmarkFig1ServerBoot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := cn.StartCluster(cn.ClusterOptions{Nodes: 4, Registry: pubRegistry})
		if err != nil {
			b.Fatal(err)
		}
		c.Close()
	}
}

// BenchmarkFig2CNXRoundTrip measures encoding + parsing the Figure 2
// transitive-closure descriptor.
func BenchmarkFig2CNXRoundTrip(b *testing.B) {
	g, err := floyd.BuildModel(5)
	if err != nil {
		b.Fatal(err)
	}
	model := cn.NewClientModel("TransClosure")
	if err := model.AddJob(g); err != nil {
		b.Fatal(err)
	}
	doc, err := cn.ModelToCNX(model, cn.TransformOptions{Port: 5666})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := doc.EncodeString()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cn.ParseCNX(strings.NewReader(s)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3ExplicitRun measures executing the Figure 3 shape (split,
// five concurrent workers, join) as a CN job.
func BenchmarkFig3ExplicitRun(b *testing.B) {
	_, cl := benchCluster(b, cn.ClusterOptions{Nodes: 4})
	ctx := context.Background()
	specs := forkJoinSpecs(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cn.RunJob(ctx, cl, fmt.Sprintf("fig3-%d", i), specs, nil)
		if err != nil || res.Failed {
			b.Fatalf("res=%+v err=%v", res, err)
		}
	}
}

// BenchmarkFig4TaggedValueCodec measures extracting the Figure 4 task
// configuration (params + requirements) from tagged values.
func BenchmarkFig4TaggedValueCodec(b *testing.B) {
	tags := cn.TaskTags("tctask.jar", "org.jhpc.cn2.trnsclsrtask.TCTask", 1000, "RUN_AS_THREAD_IN_TM")
	tags.SetParam(0, "Integer", "2")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tags.Params(); err != nil {
			b.Fatal(err)
		}
		if _, err := tags.Requirements(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5DynamicRun measures dynamic-invocation expansion plus
// execution with a run-time worker count of 4.
func BenchmarkFig5DynamicRun(b *testing.B) {
	_, cl := benchCluster(b, cn.ClusterOptions{Nodes: 4})
	g, err := cn.NewActivity("fig5").
		Initial("i").
		DynamicAction("worker", cn.TaskTags("", "pub.Noop", 10, "RUN_AS_THREAD_IN_TM"), "*", "load").
		Final("f").
		Flows("i", "worker", "f").
		Build()
	if err != nil {
		b.Fatal(err)
	}
	model := cn.NewClientModel("Fig5")
	if err := model.AddJob(g); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := cn.RunModelOnCluster(ctx, cl, model, cn.TransformOptions{Args: cn.FixedArgs(4)}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if results["fig5"].Failed {
			b.Fatal("job failed")
		}
	}
}

// BenchmarkFig6Pipeline measures the full transformation chain of Figure 6:
// model -> XMI -> parse -> model -> CNX -> generated Go client.
func BenchmarkFig6Pipeline(b *testing.B) {
	g, err := floyd.BuildModel(5)
	if err != nil {
		b.Fatal(err)
	}
	model := cn.NewClientModel("TransClosure")
	if err := model.AddJob(g); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		xdoc, err := cn.ModelToXMI(model)
		if err != nil {
			b.Fatal(err)
		}
		xmlText, err := xdoc.WriteString()
		if err != nil {
			b.Fatal(err)
		}
		parsed, err := cn.ParseXMI(strings.NewReader(xmlText))
		if err != nil {
			b.Fatal(err)
		}
		m2, err := cn.XMIToModel(parsed)
		if err != nil {
			b.Fatal(err)
		}
		doc, err := cn.ModelToCNX(m2, cn.TransformOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cn.GenerateClient(doc, cn.GenerateOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7XMIParse measures parsing the Figure 7 XMI document shape.
func BenchmarkFig7XMIParse(b *testing.B) {
	g, err := floyd.BuildModel(5)
	if err != nil {
		b.Fatal(err)
	}
	model := cn.NewClientModel("TransClosure")
	if err := model.AddJob(g); err != nil {
		b.Fatal(err)
	}
	xdoc, err := cn.ModelToXMI(model)
	if err != nil {
		b.Fatal(err)
	}
	xmlText, err := xdoc.WriteString()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(xmlText)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cn.ParseXMI(strings.NewReader(xmlText)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- T-A: parallel Floyd speedup ------------------------------------------

// BenchmarkFloydWorkers runs the guiding example at N=96 with 1..8 CN
// workers plus the sequential and in-process-goroutine baselines. The
// paper's qualitative claim — row decomposition parallelizes Floyd across
// the cluster — shows as decreasing time per op with workers, with CN
// messaging overhead visible against the in-process baseline.
func BenchmarkFloydWorkers(b *testing.B) {
	const n = 96
	m := floyd.RandomGraph(n, 0.3, 9, 17)
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			floyd.Sequential(m)
		}
	})
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("inprocess/workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				floyd.ParallelInProcess(m, w)
			}
		})
	}
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("cn/workers=%d", w), func(b *testing.B) {
			_, cl := benchCluster(b, cn.ClusterOptions{Nodes: 4})
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := floyd.Run(ctx, cl, m, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- T-A2: compute-bound scaling (Monte-Carlo pi) ---------------------------

// BenchmarkMonteCarloWorkers splits a fixed 2M-sample Monte-Carlo π
// estimation across 1..8 CN workers. Per-task compute dominates messaging
// here, so time per op should fall near-linearly with workers — the
// counterpart to the communication-bound Floyd study above.
func BenchmarkMonteCarloWorkers(b *testing.B) {
	const total = 2_000_000
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			_, cl := benchCluster(b, cn.ClusterOptions{Nodes: 4})
			ctx := context.Background()
			per := int64(total / w)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := workloads.RunMonteCarloPi(ctx, cl, w, per, 7); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- T-G: batch placement vs per-task placement ------------------------------

// BenchmarkBatchPlacement measures job admission (create job + create all
// tasks, no execution) of a 32-task job whose tasks share one archive, at
// 1/8/32 nodes. "pertask" is the pre-directory behavior — offer caching
// disabled, one CreateTask round trip (and one solicitation round) per
// task. "batch" is one CreateTasks call: one solicitation round for the
// whole set plus parallel batched assignments, with the archive traveling
// at most once per node. "warm" re-admits, in batch, a job whose archive
// the 8 nodes already hold from one cold admission made before the timer
// starts; offer caching is off so every round scores offers that advertise
// the nodes' caches. Reported metrics: solicitation rounds per admitted
// job, archive blob transfers per admitted job and, for warm, tasks placed
// on a node already holding their archive per job. A warm admission that
// sends the archive again fails the benchmark.
func BenchmarkBatchPlacement(b *testing.B) {
	const tasks = 32
	buildArchive := func(b *testing.B) *cn.Archive {
		ar, err := cn.NewArchive("bench.jar", "pub.Noop").
			AddFile("payload.bin", make([]byte, 64<<10)).Build()
		if err != nil {
			b.Fatal(err)
		}
		return ar
	}
	taskSpecs := func() []*cn.TaskSpec {
		specs := make([]*cn.TaskSpec, tasks)
		for i := range specs {
			specs[i] = noopSpec(fmt.Sprintf("t%d", i))
			specs[i].Archive = "bench.jar"
		}
		return specs
	}
	admit := func(b *testing.B, cl *cn.Client, i int, batch bool, ar *cn.Archive) {
		b.Helper()
		job, err := cl.CreateJob(fmt.Sprintf("adm-%d", i), cn.JobRequirements{})
		if err != nil {
			b.Fatal(err)
		}
		specs := taskSpecs()
		archives := map[string]*cn.Archive{ar.Name: ar}
		if batch {
			if _, err := job.CreateTasks(specs, archives); err != nil {
				b.Fatal(err)
			}
		} else {
			for _, s := range specs {
				if err := job.CreateTask(s, ar); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := job.Cancel("admission bench"); err != nil {
			b.Fatal(err)
		}
	}
	for _, nodes := range []int{1, 8, 32} {
		for _, mode := range []struct {
			name  string
			batch bool
			ttl   time.Duration
		}{
			{"pertask", false, -1}, // fresh solicitation round per task
			{"batch", true, 0},     // directory-cached batch placement
		} {
			b.Run(fmt.Sprintf("%s/nodes=%d", mode.name, nodes), func(b *testing.B) {
				c, cl := benchCluster(b, cn.ClusterOptions{Nodes: nodes, PlacementTTL: mode.ttl})
				ar := buildArchive(b)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					admit(b, cl, i, mode.batch, ar)
				}
				b.StopTimer()
				st := c.PlacementStats()
				b.ReportMetric(float64(st.SolicitRounds)/float64(b.N), "rounds/job")
				b.ReportMetric(float64(c.BlobTransfers())/float64(b.N), "uploads/job")
			})
		}
	}
	b.Run("warm/nodes=8", func(b *testing.B) {
		c, cl := benchCluster(b, cn.ClusterOptions{Nodes: 8, PlacementTTL: -1})
		ar := buildArchive(b)
		admit(b, cl, 0, true, ar)
		coldUploads, coldHits := c.BlobTransfers(), c.PlacementStats().WarmHits
		b.ResetTimer()
		for i := 1; i <= b.N; i++ {
			admit(b, cl, i, true, ar)
		}
		b.StopTimer()
		uploads := c.BlobTransfers() - coldUploads
		b.ReportMetric(float64(uploads)/float64(b.N), "uploads/job")
		b.ReportMetric(float64(c.PlacementStats().WarmHits-coldHits)/float64(b.N), "warm_hits/job")
		if uploads != 0 {
			b.Fatalf("%d warm admissions sent the archive %d more times", b.N, uploads)
		}
	})
}

// --- T-H: failure recovery --------------------------------------------------------

// sleepJob boots a cluster with opts and creates, without starting it, one
// job of n tasks of class; it returns the job's placement (task → node) and
// a stop that tears the cluster down. Each run boots its own cluster: a
// killed node stays dead.
func sleepJob(b *testing.B, opts cn.ClusterOptions, class string, n int) (*cn.Cluster, *cn.Job, map[string]string, func()) {
	b.Helper()
	c, cl, stop := startBench(b, opts)
	job, err := cl.CreateJob(class, cn.JobRequirements{})
	if err != nil {
		stop()
		b.Fatal(err)
	}
	specs := make([]*cn.TaskSpec, n)
	for i := range specs {
		specs[i] = &cn.TaskSpec{Name: fmt.Sprintf("s%02d", i), Class: class,
			Req: cn.Requirements{MemoryMB: 10, RunModel: cn.RunAsThreadInTM}}
	}
	placements, err := job.CreateTasks(specs, nil)
	if err != nil {
		stop()
		b.Fatal(err)
	}
	return c, job, placements, stop
}

// waitDone waits for job and fails the benchmark unless it succeeded.
func waitDone(b *testing.B, job *cn.Job) {
	b.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if res, err := job.Wait(ctx); err != nil || res.Failed {
		b.Fatalf("job %s: res=%+v err=%v", job.ID, res, err)
	}
}

// recoveryRun runs one 32 × 60 ms job on 8 nodes beating every hb and, with
// kill set, power-cuts a node other than the JobManager's that hosts some
// of its tasks 15 ms after Start. It returns Start to Done and the retries
// the client saw.
func recoveryRun(b *testing.B, hb time.Duration, kill bool) (time.Duration, int) {
	b.Helper()
	c, job, placements, stop := sleepJob(b, cn.ClusterOptions{
		Nodes: 8, HeartbeatInterval: hb, MaxTaskRetries: 3,
	}, "bench.Sleep", 32)
	defer stop()
	victim := ""
	for _, node := range placements {
		if node != job.JMNode {
			victim = node
			break
		}
	}
	start := time.Now()
	if err := job.Start(); err != nil {
		b.Fatal(err)
	}
	if kill {
		if victim == "" {
			b.Fatal("every task was placed on the JobManager's node: nothing to kill")
		}
		time.Sleep(15 * time.Millisecond)
		if err := c.KillNode(victim); err != nil {
			b.Fatal(err)
		}
	}
	waitDone(b, job)
	d, retried := time.Since(start), job.Progress().Retried
	if kill && retried == 0 {
		b.Fatalf("%s was killed mid-job and no task was retried", victim)
	}
	return d, retried
}

// BenchmarkRecoveryAfterNodeKill measures time-to-recover against the
// heartbeat interval: an op is one job run without a kill and one with a
// TaskManager killed mid-job, each on a fresh cluster. recover_ms, the
// killed run's duration less the baseline's, is the price of detection
// (DeadAfter is 6 × the interval) plus re-placement and re-execution.
func BenchmarkRecoveryAfterNodeKill(b *testing.B) {
	for _, hb := range []time.Duration{5 * time.Millisecond, 10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond} {
		b.Run(fmt.Sprintf("hb=%v", hb), func(b *testing.B) {
			var base, killed time.Duration
			retries := 0
			for i := 0; i < b.N; i++ {
				d, _ := recoveryRun(b, hb, false)
				base += d
				d, r := recoveryRun(b, hb, true)
				killed += d
				retries += r
			}
			ms := func(d time.Duration) float64 { return float64(d) / float64(b.N) / float64(time.Millisecond) }
			b.ReportMetric(ms(base), "baseline_ms")
			b.ReportMetric(ms(killed), "killed_ms")
			b.ReportMetric(ms(killed-base), "recover_ms")
			b.ReportMetric(float64(retries)/float64(b.N), "retries")
		})
	}
}

// --- T-J: JobManager failover ---------------------------------------------------

// failoverRun runs one job of 8 × 400 ms tasks on a 4-node cluster that
// checkpoints every 20 ms and power-cuts the hosting JobManager 50 ms after
// Start, once two checkpoint ticks have replicated the started schedule.
// It returns the time from the kill until the client's handle points at
// the adopter, and until the job is done.
func failoverRun(b *testing.B) (adopt, finish time.Duration) {
	b.Helper()
	c, job, _, stop := sleepJob(b, cn.ClusterOptions{
		Nodes: 4, HeartbeatInterval: 10 * time.Millisecond,
		MaxTaskRetries: 3, CheckpointEvery: 20 * time.Millisecond,
	}, "bench.SleepLong", 8)
	defer stop()
	if err := job.Start(); err != nil {
		b.Fatal(err)
	}
	origin := job.Manager()
	time.Sleep(50 * time.Millisecond)
	t0 := time.Now()
	if err := c.KillNode(origin); err != nil {
		b.Fatal(err)
	}
	for job.Manager() == origin {
		if time.Since(t0) > 30*time.Second {
			b.Fatalf("no JobManager adopted %s within 30s of %s's death", job.ID, origin)
		}
		time.Sleep(2 * time.Millisecond)
	}
	adopt = time.Since(t0)
	waitDone(b, job)
	return adopt, time.Since(t0)
}

// BenchmarkJobManagerFailover measures what failover delivers (failoverRun):
// adopt_ms and finish_ms are means over the runs.
func BenchmarkJobManagerFailover(b *testing.B) {
	var adopt, finish time.Duration
	for i := 0; i < b.N; i++ {
		a, f := failoverRun(b)
		adopt += a
		finish += f
	}
	b.ReportMetric(float64(adopt)/float64(b.N)/float64(time.Millisecond), "adopt_ms")
	b.ReportMetric(float64(finish)/float64(b.N)/float64(time.Millisecond), "finish_ms")
}

// --- T-B: discovery latency vs cluster size --------------------------------

// BenchmarkDiscoveryNodes measures one multicast JobManager discovery round
// (first-responder policy) against growing cluster sizes.
func BenchmarkDiscoveryNodes(b *testing.B) {
	for _, nodes := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			_, cl := benchCluster(b, cn.ClusterOptions{Nodes: nodes})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := cl.DiscoverWith(discovery.FirstResponder{}, cn.JobRequirements{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- T-C: message round-trip latency ---------------------------------------

// BenchmarkMessaging measures the client -> JobManager -> task -> JobManager
// -> client round trip for 1 KB user payloads (the conduit path of the
// paper's message model).
func BenchmarkMessaging(b *testing.B) {
	_, cl := benchCluster(b, cn.ClusterOptions{Nodes: 3})
	job, err := cl.CreateJob("echo", cn.JobRequirements{})
	if err != nil {
		b.Fatal(err)
	}
	spec := &cn.TaskSpec{Name: "echo", Class: "bench.EchoLoop",
		Req: cn.Requirements{MemoryMB: 10, RunModel: cn.RunAsThreadInTM}}
	if err := job.CreateTask(spec, nil); err != nil {
		b.Fatal(err)
	}
	if err := job.Start(); err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 1024)
	ctx := context.Background()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := job.SendMessage("echo", payload); err != nil {
			b.Fatal(err)
		}
		if _, _, err := job.GetMessage(ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	_ = job.Cancel("bench done")
}

// --- T-D: transform throughput vs model size --------------------------------

// BenchmarkXMI2CNXSize measures the XMI2CNX transformation against models
// of 10..500 worker states.
func BenchmarkXMI2CNXSize(b *testing.B) {
	for _, tasks := range []int{10, 100, 500} {
		b.Run(fmt.Sprintf("tasks=%d", tasks), func(b *testing.B) {
			g, err := floyd.BuildModel(tasks)
			if err != nil {
				b.Fatal(err)
			}
			model := cn.NewClientModel("TransClosure")
			if err := model.AddJob(g); err != nil {
				b.Fatal(err)
			}
			xdoc, err := cn.ModelToXMI(model)
			if err != nil {
				b.Fatal(err)
			}
			xmlText, err := xdoc.WriteString()
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(xmlText)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var out strings.Builder
				if err := cn.XMI2CNX(strings.NewReader(xmlText), &out, cn.TransformOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- T-E: tuple space --------------------------------------------------------

// BenchmarkTupleSpace measures the Linda-style coordination primitives the
// paper mentions as CN's second intertask mechanism.
func BenchmarkTupleSpace(b *testing.B) {
	b.Run("out-inp", func(b *testing.B) {
		s := tuplespace.New()
		for i := 0; i < b.N; i++ {
			if err := s.Out(tuplespace.Tuple{"k", i}); err != nil {
				b.Fatal(err)
			}
			if _, err := s.InP(tuplespace.Template{"k", tuplespace.Wildcard}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("out-rdp", func(b *testing.B) {
		s := tuplespace.New()
		if err := s.Out(tuplespace.Tuple{"k", 0}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.RdP(tuplespace.Template{"k", tuplespace.Wildcard}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("blocking-handoff", func(b *testing.B) {
		s := tuplespace.New()
		ctx := context.Background()
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < b.N; i++ {
				if _, err := s.In(ctx, tuplespace.Template{"h", tuplespace.Wildcard}); err != nil {
					return
				}
			}
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Out(tuplespace.Tuple{"h", i}); err != nil {
				b.Fatal(err)
			}
		}
		<-done
	})
}

// --- T-F: scheduling overhead vs plain goroutines ----------------------------

// BenchmarkSchedulingOverhead compares dispatching 8 no-op tasks through
// the full CN stack (discovery already done; placement, archive-less
// assignment, dependency scheduling, events) against spawning 8 goroutines
// directly — the framework-overhead figure a CN adopter cares about.
func BenchmarkSchedulingOverhead(b *testing.B) {
	b.Run("goroutines", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for t := 0; t < 8; t++ {
				wg.Add(1)
				go func() { defer wg.Done() }()
			}
			wg.Wait()
		}
	})
	b.Run("cn", func(b *testing.B) {
		_, cl := benchCluster(b, cn.ClusterOptions{Nodes: 4})
		ctx := context.Background()
		specs := make([]*cn.TaskSpec, 8)
		for t := 0; t < 8; t++ {
			specs[t] = noopSpec(fmt.Sprintf("t%d", t))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := cn.RunJob(ctx, cl, fmt.Sprintf("ovh-%d", i), specs, nil)
			if err != nil || res.Failed {
				b.Fatalf("res=%+v err=%v", res, err)
			}
		}
	})
}

// --- Ablations ------------------------------------------------------------------

// BenchmarkForkJoinCollapse compares dependency analysis on a fork/join
// pseudostate graph against the equivalent direct-edge graph.
func BenchmarkForkJoinCollapse(b *testing.B) {
	withPseudo, err := floyd.BuildModel(32)
	if err != nil {
		b.Fatal(err)
	}
	// Direct-edge equivalent: lift the lowered CNX back into a model
	// (CNXToModel emits direct action-to-action transitions).
	model := cn.NewClientModel("TC")
	if err := model.AddJob(withPseudo); err != nil {
		b.Fatal(err)
	}
	doc, err := cn.ModelToCNX(model, cn.TransformOptions{})
	if err != nil {
		b.Fatal(err)
	}
	lifted, err := cn.CNXToModel(doc)
	if err != nil {
		b.Fatal(err)
	}
	direct := lifted.Jobs[0]
	b.Run("pseudostates", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := withPseudo.Dependencies(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("direct-edges", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := direct.Dependencies(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSelectionPolicy compares JobManager selection policies on a
// 16-node cluster.
func BenchmarkSelectionPolicy(b *testing.B) {
	policies := []cn.Policy{
		discovery.FirstResponder{},
		discovery.BestFit{},
		discovery.LeastLoaded{},
		discovery.NewRandom(1),
	}
	for _, p := range policies {
		b.Run(p.Name(), func(b *testing.B) {
			_, cl := benchCluster(b, cn.ClusterOptions{Nodes: 16})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := cl.DiscoverWith(p, cn.JobRequirements{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTransport compares the in-memory fabric against TCP loopback
// for the same no-op job.
func BenchmarkTransport(b *testing.B) {
	for _, tp := range []cn.Transport{cn.TransportMem, cn.TransportTCP} {
		name := "mem"
		if tp == cn.TransportTCP {
			name = "tcp"
		}
		b.Run(name, func(b *testing.B) {
			_, cl := benchCluster(b, cn.ClusterOptions{Nodes: 3, Transport: tp})
			ctx := context.Background()
			specs := forkJoinSpecs(3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := cn.RunJob(ctx, cl, fmt.Sprintf("tr-%d", i), specs, nil)
				if err != nil || res.Failed {
					b.Fatalf("res=%+v err=%v", res, err)
				}
			}
		})
	}
}

// BenchmarkRunModel compares RUN_AS_THREAD_IN_TM against RUN_AS_PROCESS
// execution of the same job.
func BenchmarkRunModel(b *testing.B) {
	for _, rm := range []cn.RunModel{cn.RunAsThreadInTM, cn.RunAsProcess} {
		b.Run(rm.String(), func(b *testing.B) {
			_, cl := benchCluster(b, cn.ClusterOptions{Nodes: 3})
			ctx := context.Background()
			specs := forkJoinSpecs(3)
			for _, s := range specs {
				s.Req.RunModel = rm
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := cn.RunJob(ctx, cl, fmt.Sprintf("rm-%d", i), specs, nil)
				if err != nil || res.Failed {
					b.Fatalf("res=%+v err=%v", res, err)
				}
			}
		})
	}
}

// BenchmarkTransitiveClosureBaseline reports the Warshall boolean closure
// against full APSP at N=96 (the "transitive closure" framing of §2).
func BenchmarkTransitiveClosureBaseline(b *testing.B) {
	m := floyd.RandomGraph(96, 0.3, 9, 17)
	b.Run("warshall-closure", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			floyd.Closure(m)
		}
	})
	b.Run("floyd-apsp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			floyd.Sequential(m)
		}
	})
}
