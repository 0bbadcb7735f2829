package jobstore_test

import (
	"context"
	"fmt"
	"os"
	"testing"
	"time"

	"cn/internal/jobstore"
)

// openWAL opens a WAL backend in dir and fails the test on error. Tests
// that do not measure durability itself disable fsync for speed.
func openWAL(t *testing.T, dir string, opts jobstore.WALOptions) *jobstore.WAL {
	t.Helper()
	w, err := jobstore.OpenWAL(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestCrashRestartReplaysInterruptedJobs is the durability acceptance
// test at store level: jobs that were queued or running when the process
// died re-enter the queue on the next boot and re-run to completion,
// while already-terminal records come back exactly as they finished. The
// "crash" closes the WAL out from under the live store — exactly the
// power-cut image: every fsynced record survives, everything after
// (including the graceful-close abort transitions) is lost.
func TestCrashRestartReplaysInterruptedJobs(t *testing.T) {
	dir := t.TempDir()
	wal := openWAL(t, dir, jobstore.WALOptions{})

	release := make(chan struct{})
	s1, err := jobstore.New(jobstore.Config{
		Workers: 1,
		Backend: wal,
		Exec: func(ctx context.Context, j *jobstore.Job) (any, error) {
			j.MarkRunning()
			if string(j.Submission().Body) == "fast" {
				return "r", nil
			}
			select {
			case <-release:
			case <-ctx.Done():
			}
			return nil, ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer close(release)
	defer s1.Close()

	done, err := s1.Submit(jobstore.Submission{Format: "cnx", Body: []byte("fast"), Label: "finished"})
	if err != nil {
		t.Fatal(err)
	}
	finished := waitState(t, s1, done.ID, jobstore.StateDone)
	running, err := s1.Submit(jobstore.Submission{Format: "cnx", Body: []byte("slow")})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s1, running.ID, jobstore.StateRunning)
	queued, err := s1.Submit(jobstore.Submission{Format: "xmi", Body: []byte("slow"), Label: "waiting"})
	if err != nil {
		t.Fatal(err)
	}

	// Power cut: freeze the durable state mid-flight. Later persists from
	// the doomed store (including Close's abort transitions) fail and are
	// dropped, like writes after the plug is pulled.
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	// Reboot: a fresh WAL on the same directory, a fresh store, and an
	// executor that lets everything finish this time.
	wal2 := openWAL(t, dir, jobstore.WALOptions{})
	defer wal2.Close()
	s2, err := jobstore.New(jobstore.Config{
		Workers: 2,
		Backend: wal2,
		Exec: func(ctx context.Context, j *jobstore.Job) (any, error) {
			j.MarkRunning()
			return "rerun", nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()

	// The terminal record replays as-is: state, label, timings, id.
	rec, ok := s2.Get(done.ID)
	if !ok {
		t.Fatalf("finished job %s lost across restart", done.ID)
	}
	if rec.State != jobstore.StateDone || rec.Label != "finished" {
		t.Errorf("replayed terminal record = %+v", rec)
	}
	if rec.FinishedAt == nil || !rec.FinishedAt.Equal(*finished.FinishedAt) {
		t.Errorf("replayed FinishedAt = %v, want %v", rec.FinishedAt, finished.FinishedAt)
	}

	// Interrupted jobs re-enter the queue and re-run to completion.
	for _, id := range []string{running.ID, queued.ID} {
		rerun := waitState(t, s2, id, jobstore.StateDone)
		if rerun.SubmittedAt.IsZero() {
			t.Errorf("job %s lost its submission time: %+v", id, rerun)
		}
	}
	if rec, ok := s2.Get(queued.ID); !ok || rec.Label != "waiting" || rec.Format != "xmi" {
		t.Errorf("replayed submission metadata = %+v (ok=%v)", rec, ok)
	}

	// The id counter resumed past the replayed sequence numbers.
	fresh, err := s2.Submit(jobstore.Submission{Format: "cnx", Body: []byte("fast")})
	if err != nil {
		t.Fatal(err)
	}
	for _, old := range []string{done.ID, running.ID, queued.ID} {
		if fresh.ID == old {
			t.Fatalf("fresh submission reused replayed id %s", fresh.ID)
		}
	}
}

// TestCrashRestartEvictedJobsStayEvicted: a TTL-evicted terminal job's
// persisted record is deleted too, so it cannot resurrect on replay —
// even after a compaction rewrites the snapshot.
func TestCrashRestartEvictedJobsStayEvicted(t *testing.T) {
	dir := t.TempDir()
	wal := openWAL(t, dir, jobstore.WALOptions{NoSync: true})
	s1, err := jobstore.New(jobstore.Config{
		Workers:    1,
		ResultTTL:  20 * time.Millisecond,
		SweepEvery: 10 * time.Millisecond,
		Backend:    wal,
		Exec: func(ctx context.Context, j *jobstore.Job) (any, error) {
			j.MarkRunning()
			return "r", nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	evicted, err := s1.Submit(jobstore.Submission{Format: "cnx", Body: []byte("bye")})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s1, evicted.ID, jobstore.StateDone)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := s1.Get(evicted.ID); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("record never evicted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Compact so the eviction must survive the snapshot rewrite, not just
	// ride the delete record in the log tail.
	if err := wal.Compact(); err != nil {
		t.Fatal(err)
	}
	s1.Close()
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	wal2 := openWAL(t, dir, jobstore.WALOptions{})
	defer wal2.Close()
	pjs, err := wal2.Load()
	if err != nil {
		t.Fatal(err)
	}
	for _, pj := range pjs {
		if pj.ID == evicted.ID {
			t.Fatalf("evicted job %s resurrected after restart (state %s)", pj.ID, pj.State)
		}
	}
}

// TestWALDeleteSurvivesCompaction exercises the backend contract
// directly: a deleted job stays deleted through snapshot + log reset.
func TestWALDeleteSurvivesCompaction(t *testing.T) {
	dir := t.TempDir()
	wal := openWAL(t, dir, jobstore.WALOptions{NoSync: true})
	put := func(id string, seq int64) {
		t.Helper()
		if err := wal.Put(&jobstore.PersistedJob{ID: id, Seq: seq, Sub: jobstore.Submission{Format: "cnx"}, State: jobstore.StateDone}); err != nil {
			t.Fatal(err)
		}
	}
	put("job-1", 1)
	put("job-2", 2)
	if err := wal.Delete("job-1"); err != nil {
		t.Fatal(err)
	}
	if err := wal.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	wal2 := openWAL(t, dir, jobstore.WALOptions{})
	defer wal2.Close()
	pjs, err := wal2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(pjs) != 1 || pjs[0].ID != "job-2" {
		t.Fatalf("replayed set = %+v, want only job-2", pjs)
	}
}

// TestCrashRestartThroughCompaction drives enough mutations through a
// tiny compaction budget that replay must stitch snapshot + log together.
func TestCrashRestartThroughCompaction(t *testing.T) {
	dir := t.TempDir()
	wal := openWAL(t, dir, jobstore.WALOptions{NoSync: true, CompactEvery: 4})
	s1, err := jobstore.New(jobstore.Config{
		Workers: 2,
		Backend: wal,
		Exec: func(ctx context.Context, j *jobstore.Job) (any, error) {
			j.MarkRunning()
			return "r", nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 6
	ids := make([]string, 0, jobs)
	for i := 0; i < jobs; i++ {
		rec, err := s1.Submit(jobstore.Submission{Format: "cnx"})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, rec.ID)
	}
	for _, id := range ids {
		waitState(t, s1, id, jobstore.StateDone)
	}
	s1.Close()
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	wal2 := openWAL(t, dir, jobstore.WALOptions{})
	defer wal2.Close()
	s2, err := jobstore.New(jobstore.Config{
		Backend: wal2,
		Exec:    func(ctx context.Context, j *jobstore.Job) (any, error) { return nil, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for _, id := range ids {
		rec, ok := s2.Get(id)
		if !ok || rec.State != jobstore.StateDone {
			t.Errorf("job %s after compacted restart: ok=%v rec=%+v", id, ok, rec)
		}
	}
}

// BenchmarkWALReplay: what a reboot pays to replay the log, against its
// size. Each case writes n queued jobs with a 512-byte submission through
// the default compaction budget, so the directory holds a snapshot and a
// log tail, as a portal's does; an op is one OpenWAL + Load + Close.
//
//	go test ./internal/jobstore -run '^$' -bench WALReplay -benchtime 1x
func BenchmarkWALReplay(b *testing.B) {
	body := make([]byte, 512)
	for _, n := range []int{1024, 4096, 16384} {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			w, err := jobstore.OpenWAL(dir, jobstore.WALOptions{NoSync: true})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if err := w.Put(&jobstore.PersistedJob{
					ID: fmt.Sprintf("job-%d", i+1), Seq: int64(i + 1),
					Sub:   jobstore.Submission{Format: jobstore.FormatCNX, Body: body, Label: "bench"},
					State: jobstore.StateQueued,
				}); err != nil {
					b.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				b.Fatal(err)
			}
			var size int64
			entries, err := os.ReadDir(dir)
			if err != nil {
				b.Fatal(err)
			}
			for _, e := range entries {
				if fi, err := e.Info(); err == nil {
					size += fi.Size()
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w, err := jobstore.OpenWAL(dir, jobstore.WALOptions{})
				if err != nil {
					b.Fatal(err)
				}
				pjs, err := w.Load()
				if err != nil {
					b.Fatal(err)
				}
				if len(pjs) != n {
					b.Fatalf("replayed %d of %d records", len(pjs), n)
				}
				w.Close()
			}
			b.ReportMetric(float64(size), "wal_bytes")
		})
	}
}
