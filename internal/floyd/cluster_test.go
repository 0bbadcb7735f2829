package floyd_test

import (
	"context"
	"testing"
	"time"

	"cn/internal/api"
	"cn/internal/cluster"
	"cn/internal/floyd"
	"cn/internal/protocol"
	"cn/internal/task"
)

// registry with the transitive-closure tasks deployed.
var registry = func() *task.Registry {
	r := task.NewRegistry()
	floyd.MustRegister(r)
	return r
}()

func startCluster(t *testing.T, nodes int) *api.Client {
	t.Helper()
	c, err := cluster.Start(cluster.Config{Nodes: nodes, Registry: registry, MemoryMB: 32000})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	cl, err := api.Initialize(c.Network(), api.Options{DiscoveryWindow: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func runAndVerify(t *testing.T, cl *api.Client, n, workers int, seed int64) {
	t.Helper()
	m := floyd.RandomGraph(n, 0.2, 9, seed)
	want := floyd.Sequential(m)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	got, err := floyd.Run(ctx, cl, m, workers)
	if err != nil {
		t.Fatalf("Run(n=%d, workers=%d): %v", n, workers, err)
	}
	if !got.Equal(want) {
		t.Fatalf("n=%d workers=%d: CN result differs from sequential Floyd", n, workers)
	}
	if err := floyd.VerifyShortestPaths(got); err != nil {
		t.Fatal(err)
	}
}

func TestCNFloydSingleWorker(t *testing.T) {
	cl := startCluster(t, 2)
	runAndVerify(t, cl, 16, 1, 1)
}

func TestCNFloydFourWorkers(t *testing.T) {
	cl := startCluster(t, 4)
	runAndVerify(t, cl, 32, 4, 2)
}

func TestCNFloydMoreWorkersThanNodes(t *testing.T) {
	// 8 workers across 3 nodes: multiple tasks per TaskManager.
	cl := startCluster(t, 3)
	runAndVerify(t, cl, 24, 8, 3)
}

func TestCNFloydUnevenBlocks(t *testing.T) {
	// 17 rows over 5 workers: uneven contiguous blocks.
	cl := startCluster(t, 3)
	runAndVerify(t, cl, 17, 5, 4)
}

func TestCNFloydRing(t *testing.T) {
	cl := startCluster(t, 3)
	m := floyd.RingGraph(20)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	got, err := floyd.Run(ctx, cl, m, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m.N; i++ {
		for j := 0; j < m.N; j++ {
			want := int64((j - i + m.N) % m.N)
			if got.At(i, j) != want {
				t.Fatalf("d(%d,%d) = %d, want %d", i, j, got.At(i, j), want)
			}
		}
	}
}

func TestCNFloydSequentialJobsReuseClient(t *testing.T) {
	cl := startCluster(t, 3)
	for seed := int64(10); seed < 13; seed++ {
		runAndVerify(t, cl, 12, 3, seed)
	}
}

func TestCNFloydTooManyWorkersFails(t *testing.T) {
	// The algorithm allows at most N tasks (paper §2); the split task must
	// reject more workers than rows and the job must fail cleanly.
	cl := startCluster(t, 2)
	m := floyd.RandomGraph(3, 0.5, 5, 5)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, err := floyd.Run(ctx, cl, m, 8)
	if err == nil {
		t.Fatal("8 workers over 3 rows should fail")
	}
}

// TestSplitSkipsUndecodableMessages: bytes that do not decode, sent to the
// splitter before the matrix, are logged and skipped, and the job still
// computes the right closure.
func TestSplitSkipsUndecodableMessages(t *testing.T) {
	cl := startCluster(t, 2)
	m := floyd.RandomGraph(12, 0.3, 9, 6)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	specs, err := floyd.Specs(3)
	if err != nil {
		t.Fatal(err)
	}
	archives, err := floyd.Archives()
	if err != nil {
		t.Fatal(err)
	}
	job, err := cl.CreateJob("transclosure", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	defer job.Release()
	for _, s := range specs {
		if err := job.CreateTask(s, archives[s.Archive]); err != nil {
			t.Fatal(err)
		}
	}
	if err := job.Start(); err != nil {
		t.Fatal(err)
	}
	for _, data := range [][]byte{{0xff}, []byte("not a matrix"), floyd.EncodeMatrixMessage(m)} {
		if err := job.SendMessage(floyd.SplitTaskName, data); err != nil {
			t.Fatal(err)
		}
	}
	// Read until the joiner's result, whether or not the job's end overtook
	// it: the message is queued for the client either way.
	for {
		from, data, err := job.GetMessage(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if from != floyd.JoinTaskName {
			continue
		}
		got, err := floyd.DecodeResultMessage(data)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(floyd.Sequential(m)) {
			t.Fatal("CN result differs from sequential Floyd")
		}
		break
	}
	if res, err := job.Wait(ctx); err != nil || res.Failed {
		t.Fatalf("job: %v %+v", err, res)
	}
}
