package jobstore_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cn/internal/jobstore"
)

// waitState polls until the job reaches want (or any terminal state when
// want is terminal and the job lands elsewhere, which fails the test).
func waitState(t *testing.T, s *jobstore.Store, id string, want jobstore.State) *jobstore.Record {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		rec, ok := s.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared while waiting for %s", id, want)
		}
		if rec.State == want {
			return rec
		}
		if rec.State.Terminal() {
			t.Fatalf("job %s reached %s (error %q), want %s", id, rec.State, rec.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return nil
}

func TestLifecycleDone(t *testing.T) {
	s, err := jobstore.New(jobstore.Config{
		Workers: 1,
		Exec: func(ctx context.Context, j *jobstore.Job) (any, error) {
			j.MarkRunning()
			return "result:" + string(j.Submission().Body), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	rec, err := s.Submit(jobstore.Submission{Format: "cnx", Body: []byte("doc"), Label: "demo"})
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != jobstore.StateQueued || rec.ID == "" {
		t.Fatalf("submit record = %+v", rec)
	}
	done := waitState(t, s, rec.ID, jobstore.StateDone)
	if done.Label != "demo" || done.Format != "cnx" {
		t.Errorf("record = %+v", done)
	}
	if done.StartedAt == nil || done.FinishedAt == nil {
		t.Errorf("missing timings: %+v", done)
	}
	res, state, ok := s.Result(rec.ID)
	if !ok || state != jobstore.StateDone || res != "result:doc" {
		t.Errorf("result = %v state=%s ok=%v", res, state, ok)
	}
}

func TestLifecycleFailed(t *testing.T) {
	s, err := jobstore.New(jobstore.Config{
		Exec: func(ctx context.Context, j *jobstore.Job) (any, error) {
			return nil, errors.New("compile exploded")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rec, err := s.Submit(jobstore.Submission{Format: "xmi"})
	if err != nil {
		t.Fatal(err)
	}
	failed := waitState(t, s, rec.ID, jobstore.StateFailed)
	if failed.Error != "compile exploded" {
		t.Errorf("error = %q", failed.Error)
	}
}

// TestConcurrencyBeyondPool submits more jobs than workers: all are
// accepted immediately, at most Workers run at once, and all finish.
func TestConcurrencyBeyondPool(t *testing.T) {
	const workers, jobs = 2, 6
	var running, peak atomic.Int64
	release := make(chan struct{})
	s, err := jobstore.New(jobstore.Config{
		Workers:    workers,
		QueueDepth: jobs,
		Exec: func(ctx context.Context, j *jobstore.Job) (any, error) {
			n := running.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			defer running.Add(-1)
			j.MarkRunning()
			select {
			case <-release:
				return j.ID(), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ids := make([]string, 0, jobs)
	for i := 0; i < jobs; i++ {
		rec, err := s.Submit(jobstore.Submission{Format: "cnx", Body: []byte(fmt.Sprint(i))})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, rec.ID)
	}
	// Let the pool saturate, then open the gate.
	time.Sleep(50 * time.Millisecond)
	close(release)
	for _, id := range ids {
		waitState(t, s, id, jobstore.StateDone)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency %d exceeds pool size %d", p, workers)
	}
	stats := s.Stats()
	if stats.JobsByState[jobstore.StateDone] != jobs {
		t.Errorf("stats = %+v", stats)
	}
}

func TestBackpressure(t *testing.T) {
	block := make(chan struct{})
	s, err := jobstore.New(jobstore.Config{
		Workers:    1,
		QueueDepth: 1,
		Exec: func(ctx context.Context, j *jobstore.Job) (any, error) {
			j.MarkRunning()
			select {
			case <-block:
			case <-ctx.Done():
			}
			return nil, ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	first, err := s.Submit(jobstore.Submission{Format: "cnx"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, first.ID, jobstore.StateRunning)
	// Worker busy: one slot in the queue, then full.
	if _, err := s.Submit(jobstore.Submission{Format: "cnx"}); err != nil {
		t.Fatalf("queued submit: %v", err)
	}
	if _, err := s.Submit(jobstore.Submission{Format: "cnx"}); !errors.Is(err, jobstore.ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if stats := s.Stats(); stats.Rejected != 1 || stats.QueueDepth != 1 {
		t.Errorf("stats = %+v", stats)
	}
	close(block)
}

func TestAbortQueuedJob(t *testing.T) {
	var executed atomic.Int64
	block := make(chan struct{})
	defer close(block)
	s, err := jobstore.New(jobstore.Config{
		Workers:    1,
		QueueDepth: 4,
		Exec: func(ctx context.Context, j *jobstore.Job) (any, error) {
			executed.Add(1)
			j.MarkRunning()
			select {
			case <-block:
			case <-ctx.Done():
			}
			return nil, ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	first, err := s.Submit(jobstore.Submission{Format: "cnx"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, first.ID, jobstore.StateRunning)
	queued, err := s.Submit(jobstore.Submission{Format: "cnx"})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := s.Delete(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != jobstore.StateAborted {
		t.Errorf("state = %s, want aborted", rec.State)
	}
	// The aborted job must never execute even after the worker frees up.
	if _, err := s.Delete(first.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, first.ID, jobstore.StateAborted)
	time.Sleep(20 * time.Millisecond)
	if n := executed.Load(); n != 1 {
		t.Errorf("executed %d jobs, want 1 (aborted queued job must be skipped)", n)
	}
}

// TestAbortQueuedFreesSlot verifies backpressure tracks live work:
// aborting a queued job immediately opens queue capacity.
func TestAbortQueuedFreesSlot(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	s, err := jobstore.New(jobstore.Config{
		Workers:    1,
		QueueDepth: 1,
		Exec: func(ctx context.Context, j *jobstore.Job) (any, error) {
			j.MarkRunning()
			select {
			case <-block:
			case <-ctx.Done():
			}
			return nil, ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	running, err := s.Submit(jobstore.Submission{Format: "cnx"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, running.ID, jobstore.StateRunning)
	queued, err := s.Submit(jobstore.Submission{Format: "cnx"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(jobstore.Submission{Format: "cnx"}); !errors.Is(err, jobstore.ErrQueueFull) {
		t.Fatalf("pre-abort err = %v, want ErrQueueFull", err)
	}
	if _, err := s.Delete(queued.ID); err != nil {
		t.Fatal(err)
	}
	if s.Stats().QueueDepth != 0 {
		t.Errorf("queue depth after abort = %d, want 0", s.Stats().QueueDepth)
	}
	if _, err := s.Submit(jobstore.Submission{Format: "cnx"}); err != nil {
		t.Errorf("post-abort submit err = %v, want nil", err)
	}
}

func TestAbortRunningJob(t *testing.T) {
	s, err := jobstore.New(jobstore.Config{
		Workers: 1,
		Exec: func(ctx context.Context, j *jobstore.Job) (any, error) {
			j.MarkRunning()
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rec, err := s.Submit(jobstore.Submission{Format: "cnx"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, rec.ID, jobstore.StateRunning)
	if _, err := s.Delete(rec.ID); err != nil {
		t.Fatal(err)
	}
	aborted := waitState(t, s, rec.ID, jobstore.StateAborted)
	if aborted.Error == "" {
		t.Errorf("aborted record missing error: %+v", aborted)
	}
}

func TestResultEvictionAfterTTL(t *testing.T) {
	s, err := jobstore.New(jobstore.Config{
		Workers:    1,
		ResultTTL:  30 * time.Millisecond,
		SweepEvery: 10 * time.Millisecond,
		Exec: func(ctx context.Context, j *jobstore.Job) (any, error) {
			j.MarkRunning()
			return "r", nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rec, err := s.Submit(jobstore.Submission{Format: "cnx"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, rec.ID, jobstore.StateDone)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := s.Get(rec.ID); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("terminal record never evicted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if stats := s.Stats(); stats.Evicted != 1 {
		t.Errorf("stats = %+v", stats)
	}
	if got := len(s.List("")); got != 0 {
		t.Errorf("list after eviction has %d records", got)
	}
}

func TestDeleteTerminalRemovesRecord(t *testing.T) {
	s, err := jobstore.New(jobstore.Config{
		ResultTTL: -1, // no eviction
		Exec: func(ctx context.Context, j *jobstore.Job) (any, error) {
			j.MarkRunning()
			return "r", nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rec, err := s.Submit(jobstore.Submission{Format: "cnx"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, rec.ID, jobstore.StateDone)
	if _, err := s.Delete(rec.ID); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(rec.ID); ok {
		t.Error("record survived delete")
	}
	if _, err := s.Delete(rec.ID); !errors.Is(err, jobstore.ErrUnknownJob) {
		t.Errorf("second delete err = %v", err)
	}
}

func TestListFilter(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	s, err := jobstore.New(jobstore.Config{
		Workers:    1,
		QueueDepth: 8,
		Exec: func(ctx context.Context, j *jobstore.Job) (any, error) {
			j.MarkRunning()
			select {
			case <-block:
			case <-ctx.Done():
			}
			return nil, ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	first, err := s.Submit(jobstore.Submission{Format: "cnx"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, first.ID, jobstore.StateRunning)
	for i := 0; i < 3; i++ {
		if _, err := s.Submit(jobstore.Submission{Format: "cnx"}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(s.List(jobstore.StateQueued)); got != 3 {
		t.Errorf("queued = %d, want 3", got)
	}
	if got := len(s.List(jobstore.StateRunning)); got != 1 {
		t.Errorf("running = %d, want 1", got)
	}
	if got := len(s.List("")); got != 4 {
		t.Errorf("all = %d, want 4", got)
	}
	if _, err := jobstore.ParseState("bogus"); err == nil {
		t.Error("ParseState accepted bogus state")
	}
}

// TestProgressSnapshot verifies the executor-installed progress callback
// is consulted on snapshots without holding store locks while the job
// runs, and read one last time and dropped when it finishes.
func TestProgressSnapshot(t *testing.T) {
	var mu sync.Mutex
	p := jobstore.Progress{Jobs: 1, TasksTotal: 5}
	calls := 0
	block := make(chan struct{})
	s, err := jobstore.New(jobstore.Config{
		Workers: 1,
		Exec: func(ctx context.Context, j *jobstore.Job) (any, error) {
			j.MarkRunning()
			j.SetProgress(func() jobstore.Progress {
				mu.Lock()
				defer mu.Unlock()
				calls++
				return p
			})
			select {
			case <-block:
			case <-ctx.Done():
			}
			return nil, ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rec, err := s.Submit(jobstore.Submission{Format: "cnx"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, rec.ID, jobstore.StateRunning)
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, _ := s.Get(rec.ID)
		if got.Progress != nil && got.Progress.TasksTotal == 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("progress never surfaced: %+v", got)
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	p.TasksDone = 5
	mu.Unlock()
	got, _ := s.Get(rec.ID)
	if got.Progress.TasksDone != 5 {
		t.Errorf("progress = %+v", got.Progress)
	}

	close(block)
	waitState(t, s, rec.ID, jobstore.StateDone)
	mu.Lock()
	p.TasksDone = 99 // whatever the source says from here on is not the job's
	frozenAt := calls
	mu.Unlock()
	for _, read := range []func() *jobstore.Record{
		func() *jobstore.Record { r, _ := s.Get(rec.ID); return r },
		func() *jobstore.Record { r, _, _, _ := s.ResultRecord(rec.ID); return r },
		func() *jobstore.Record { return s.List(jobstore.StateDone)[0] },
	} {
		if r := read(); r.Progress == nil || r.Progress.TasksDone != 5 {
			t.Errorf("finished record's progress = %+v, want the counts at the terminal transition", r.Progress)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != frozenAt {
		t.Errorf("progress callback consulted %d more times after the job finished", calls-frozenAt)
	}
}

// TestMetricsInstrumentation checks the gauges/counters/histograms the
// store maintains in its registry.
func TestMetricsInstrumentation(t *testing.T) {
	s, err := jobstore.New(jobstore.Config{
		Workers: 1,
		Exec: func(ctx context.Context, j *jobstore.Job) (any, error) {
			j.MarkRunning()
			return "r", nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rec, err := s.Submit(jobstore.Submission{Format: "cnx"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, rec.ID, jobstore.StateDone)
	snap := s.Metrics().Snapshot()
	if snap.Counters["jobstore.submitted"] != 1 {
		t.Errorf("submitted counter = %d", snap.Counters["jobstore.submitted"])
	}
	if snap.Gauges["jobstore.jobs.done"] != 1 {
		t.Errorf("done gauge = %d (gauges %v)", snap.Gauges["jobstore.jobs.done"], snap.Gauges)
	}
	if snap.Histograms["jobstore.run_ms"].Count != 1 {
		t.Errorf("run_ms histogram = %+v", snap.Histograms["jobstore.run_ms"])
	}
}
