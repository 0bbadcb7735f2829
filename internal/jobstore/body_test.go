package jobstore_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"cn/internal/jobstore"
)

// bodyExec runs a submission as its body says: "bad…" fails before it is
// marked running (a compile error), "hold…" runs until it is cancelled
// (announcing itself on started), anything else finishes at once.
func bodyExec(started chan<- string) jobstore.ExecFunc {
	return func(ctx context.Context, j *jobstore.Job) (any, error) {
		body := string(j.Submission().Body)
		if strings.HasPrefix(body, "bad") {
			return nil, errors.New("does not compile")
		}
		j.MarkRunning()
		if strings.HasPrefix(body, "hold") {
			started <- j.ID()
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return "ran " + body, nil
	}
}

func waitTerminal(t *testing.T, s *jobstore.Store, id string, want jobstore.State) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rec, err := s.Wait(ctx, id)
	if err != nil || rec.State != want {
		t.Fatalf("job %s: %+v, %v; want %s", id, rec, err, want)
	}
}

func bodyBytes(s *jobstore.Store) int64 { return s.Metrics().Gauge("jobstore.body_bytes").Value() }

// persistedBodies maps each persisted job to the length of the text its
// image carries.
func persistedBodies(t *testing.T, b jobstore.Backend) map[string]int {
	t.Helper()
	pjs, err := b.Load()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int, len(pjs))
	for _, pj := range pjs {
		if pj.State.Terminal() != (len(pj.Sub.Body) == 0) {
			t.Errorf("persisted job %s is %s and carries %d bytes of text", pj.ID, pj.State, len(pj.Sub.Body))
		}
		out[pj.ID] = len(pj.Sub.Body)
	}
	return out
}

// TestStoreHoldsTextOnlyForJobsThatCanRun walks one job down every route to
// a terminal state — done, failed at compile, aborted while queued, aborted
// while running, aborted by shutdown queued and running — and reads the
// jobstore.body_bytes gauge and the backend's images along the way: a job's
// text is held, in memory and in what is persisted, exactly until the job can
// no longer run.
func TestStoreHoldsTextOnlyForJobsThatCanRun(t *testing.T) {
	backends := map[string]func(t *testing.T) jobstore.Backend{
		"mem": func(*testing.T) jobstore.Backend { return jobstore.NewMemBackend() },
		"wal": func(t *testing.T) jobstore.Backend {
			return openWAL(t, t.TempDir(), jobstore.WALOptions{NoSync: true})
		},
	}
	for name, open := range backends {
		t.Run(name, func(t *testing.T) {
			backend := open(t)
			defer backend.Close()
			started := make(chan string, 1)
			s, err := jobstore.New(jobstore.Config{Workers: 1, Backend: backend, Exec: bodyExec(started)})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			submit := func(body string) string {
				t.Helper()
				rec, err := s.Submit(jobstore.Submission{Format: jobstore.FormatCNX, Body: []byte(body)})
				if err != nil {
					t.Fatal(err)
				}
				return rec.ID
			}

			waitTerminal(t, s, submit("finishes"), jobstore.StateDone)
			waitTerminal(t, s, submit("bad document"), jobstore.StateFailed)
			if got := bodyBytes(s); got != 0 {
				t.Errorf("body_bytes = %d after a done and a failed job, want 0", got)
			}

			const holdA, queuedB = "hold the only worker", "queued behind it, a longer text"
			a := submit(holdA)
			if id := <-started; id != a {
				t.Fatalf("started %s, want %s", id, a)
			}
			b := submit(queuedB)
			if got, want := bodyBytes(s), int64(len(holdA)+len(queuedB)); got != want {
				t.Errorf("body_bytes = %d with one job running and one queued, want %d", got, want)
			}
			if bodies := persistedBodies(t, backend); bodies[a] != len(holdA) || bodies[b] != len(queuedB) {
				t.Errorf("persisted text of the live jobs = %v", bodies)
			}

			if _, err := s.Delete(b); err != nil { // aborted while queued
				t.Fatal(err)
			}
			waitTerminal(t, s, b, jobstore.StateAborted)
			if got, want := bodyBytes(s), int64(len(holdA)); got != want {
				t.Errorf("body_bytes = %d after the queued job was aborted, want %d", got, want)
			}

			const holdC, queuedD = "hold again", "queued at shutdown"
			c := submit(holdC)
			if _, err := s.Delete(a); err != nil { // aborted while running
				t.Fatal(err)
			}
			waitTerminal(t, s, a, jobstore.StateAborted)
			if id := <-started; id != c {
				t.Fatalf("started %s, want %s", id, c)
			}
			d := submit(queuedD)
			if got, want := bodyBytes(s), int64(len(holdC)+len(queuedD)); got != want {
				t.Errorf("body_bytes = %d before shutdown, want %d", got, want)
			}

			s.Close() // c is running, d is queued: both end here
			waitTerminal(t, s, c, jobstore.StateAborted)
			waitTerminal(t, s, d, jobstore.StateAborted)
			if got := bodyBytes(s); got != 0 {
				t.Errorf("body_bytes = %d after every job reached a terminal state, want 0", got)
			}
			if bodies := persistedBodies(t, backend); len(bodies) != 6 {
				t.Errorf("persisted jobs = %v, want all six", bodies)
			}
			for _, id := range []string{a, b, c, d} {
				if rec, ok := s.Get(id); !ok || rec.Format != jobstore.FormatCNX || rec.Error == "" {
					t.Errorf("terminal record %s = %+v (ok=%v): it keeps format and error", id, rec, ok)
				}
			}
		})
	}
}

// TestWALReplayKeepsTextOfInterruptedJobsOnly: across a crash the log gives
// back a finished job without text, and an interrupted one with all of it —
// which is what it re-runs from, to done, after which that text is gone too.
func TestWALReplayKeepsTextOfInterruptedJobsOnly(t *testing.T) {
	dir := t.TempDir()
	wal := openWAL(t, dir, jobstore.WALOptions{})
	started := make(chan string, 1)
	s1, err := jobstore.New(jobstore.Config{Workers: 1, Backend: wal, Exec: bodyExec(started)})
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	texts := map[string]string{}
	submit := func(body string) string {
		t.Helper()
		rec, err := s1.Submit(jobstore.Submission{Format: jobstore.FormatXMI, Body: []byte(body), Invocations: 8})
		if err != nil {
			t.Fatal(err)
		}
		texts[rec.ID] = body
		return rec.ID
	}
	finished := submit("finished before the crash")
	waitTerminal(t, s1, finished, jobstore.StateDone)
	running := submit("hold: running at the crash")
	<-started
	queued := submit("hold: queued at the crash")
	if err := wal.Close(); err != nil { // power cut
		t.Fatal(err)
	}

	wal2 := openWAL(t, dir, jobstore.WALOptions{})
	defer wal2.Close()
	bodies := persistedBodies(t, wal2)
	if bodies[finished] != 0 || bodies[running] != len(texts[running]) || bodies[queued] != len(texts[queued]) {
		t.Errorf("text replayed per job = %v", bodies)
	}
	reran := make(chan string, 2)
	s2, err := jobstore.New(jobstore.Config{
		Workers: 1,
		Backend: wal2,
		Exec: func(ctx context.Context, j *jobstore.Job) (any, error) {
			sub := j.Submission()
			if string(sub.Body) != texts[j.ID()] || sub.Format != jobstore.FormatXMI || sub.Invocations != 8 {
				return nil, errors.New("replayed submission differs from the original")
			}
			j.MarkRunning()
			reran <- j.ID()
			return "rerun", nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for _, id := range []string{running, queued} {
		waitTerminal(t, s2, id, jobstore.StateDone)
	}
	if len(reran) != 2 {
		t.Errorf("%d jobs re-ran, want the two interrupted ones", len(reran))
	}
	if rec, ok := s2.Get(finished); !ok || rec.State != jobstore.StateDone || rec.Format != jobstore.FormatXMI {
		t.Errorf("finished record after replay = %+v (ok=%v)", rec, ok)
	}
	if got := bodyBytes(s2); got != 0 {
		t.Errorf("body_bytes = %d once the replayed jobs finished, want 0", got)
	}
	for id, n := range persistedBodies(t, wal2) {
		if n != 0 {
			t.Errorf("job %s still persists %d bytes of text", id, n)
		}
	}
}

// TestWALWrittenWithTerminalBodiesReplays: a log from before terminal records
// dropped their text (a terminal put that carries the body) loads as it is,
// and the store serves the record without holding the text.
func TestWALWrittenWithTerminalBodiesReplays(t *testing.T) {
	dir := t.TempDir()
	wal := openWAL(t, dir, jobstore.WALOptions{NoSync: true})
	old := &jobstore.PersistedJob{
		ID: "job-7", Seq: 7, State: jobstore.StateFailed, Error: "job \"j\" failed",
		Sub:         jobstore.Submission{Format: jobstore.FormatCNX, Body: []byte("<cn2>the whole descriptor</cn2>"), Label: "legacy"},
		SubmittedAt: 1_000, StartedAt: 2_000, FinishedAt: 5_000, QueueWaitNS: 1_000, RunNS: 3_000,
	}
	if err := wal.Put(old); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	wal2 := openWAL(t, dir, jobstore.WALOptions{NoSync: true})
	defer wal2.Close()
	pjs, err := wal2.Load()
	if err != nil || len(pjs) != 1 || string(pjs[0].Sub.Body) != string(old.Sub.Body) || pjs[0].FinishedAt != old.FinishedAt {
		t.Fatalf("Load = %+v, %v; want the record as written", pjs, err)
	}
	s, err := jobstore.New(jobstore.Config{Backend: wal2, Exec: bodyExec(nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rec, ok := s.Get("job-7")
	if !ok || rec.State != jobstore.StateFailed || rec.Label != "legacy" || rec.Error != old.Error ||
		rec.FinishedAt == nil || rec.FinishedAt.UnixNano() != old.FinishedAt || rec.RunMS != 0.003 {
		t.Errorf("replayed record = %+v (ok=%v)", rec, ok)
	}
	if got := bodyBytes(s); got != 0 {
		t.Errorf("body_bytes = %d for a replayed terminal record, want 0", got)
	}
	next, err := s.Submit(jobstore.Submission{Format: jobstore.FormatCNX, Body: []byte("new")})
	if err != nil || next.ID != "job-8" {
		t.Errorf("next submission = %+v, %v; want job-8", next, err)
	}
}
