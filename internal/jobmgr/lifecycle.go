// Job lifecycle: what is left of a job once it has ended.
//
// jm.jobs holds live jobs only. Every exit — completed, failed, cancelled,
// abandoned before it started — goes through finishJob, which retires the
// record: the tombstone is built from the now-settled state, then in one
// critical section under jm.mu the record leaves jm.jobs and the tombstone
// takes its place in jm.tombs, so a finished job is never in neither table.
// The worker goroutine drains what its mailbox already held and exits; the
// task table, space, broker and maps become garbage.
//
// The tombstone answers, for config.Config.TombstoneTTL, the few questions still
// asked about a finished job: its final census (JobProgress), its trace
// (JobTrace), whether a heartbeat's job id is known, and how the job ended
// when a stale request names it. Nothing on a hot path walks the
// tombstones; the janitor takes expired ones off the front of a queue kept
// in retirement order.

package jobmgr

import (
	"time"

	"cn/internal/protocol"
	"cn/internal/trace"
)

// outcome is how a job ended.
type outcome uint8

const (
	outcomeCompleted outcome = iota
	outcomeFailed
	outcomeCancelled
	outcomeAbandoned
)

func (o outcome) String() string {
	switch o {
	case outcomeCompleted:
		return "completed"
	case outcomeFailed:
		return "failed"
	case outcomeCancelled:
		return "cancelled"
	}
	return "abandoned"
}

// tombstone is what a retired job leaves behind. It is immutable once
// published in jm.tombs.
type tombstone struct {
	id         string
	outcome    outcome
	finishedAt time.Time
	progress   Progress          // the final census, Retried and TSOps included
	timeline   []trace.Span      // nil unless the job was traced
	taskErrs   map[string]string // nil unless a task failed
}

// end names the end a finished schedule reached and the reason its
// leftover assignments are cancelled with.
func (t *taskTable) end() (outcome, string) {
	if t.failed {
		return outcomeFailed, "job failed"
	}
	return outcomeCompleted, ""
}

// retire moves a finished job from the live table to the tombstone index
// and gives its worker the signal to exit. A job that peers hold a
// checkpoint of also owes them its terminal record, sent here; a job no
// peer ever heard of owes them nothing. Called once per job, by finishJob.
func (jm *JobManager) retire(j *jobState, how outcome) *tombstone {
	t := &tombstone{id: j.id, outcome: how}
	j.mu.Lock()
	t.progress = j.progressLocked()
	for i := range j.tasks {
		if r := &j.tasks[i]; r.err != "" {
			if t.taskErrs == nil {
				t.taskErrs = make(map[string]string)
			}
			t.taskErrs[r.spec.Name] = r.err
		}
	}
	if n := len(j.timeline); n > 0 {
		// Capacity clipped: a straggling span appended to the dead record
		// must not land in the array the tombstone reads.
		t.timeline = j.timeline[:n:n]
	}
	seq := j.ckptSeq
	j.mu.Unlock()
	jm.mu.Lock()
	t.finishedAt = time.Now()
	delete(jm.jobs, j.id)
	jm.tombs[t.id] = t
	jm.tombQ = append(jm.tombQ, t)
	jm.mu.Unlock()
	j.queue.Close()
	jm.dropPeerImage(t.id, seq)
	return t
}

// dropPeerImage sends the peers the terminal record of a job they hold an
// image of — seq, its last snapshot's number, is not 0 — so none of them
// adopts it.
func (jm *JobManager) dropPeerImage(id string, seq uint64) {
	if seq > 0 {
		jm.ckptMu.Lock()
		jm.multicastCheckpoint(protocol.JMCheckpoint{Origin: jm.node, JobID: id, Seq: seq + 1, Done: true})
		jm.ckptMu.Unlock()
	}
}

// janitor bounds what a long-lived JobManager remembers: tombstones past
// the TTL, and jobs whose composition was abandoned.
func (jm *JobManager) janitor() {
	defer jm.wg.Done()
	sweep := jm.cfg.TombstoneTTL / 4
	if sweep < 10*time.Millisecond {
		sweep = 10 * time.Millisecond
	}
	if sweep > time.Minute {
		sweep = time.Minute
	}
	ticker := time.NewTicker(sweep)
	defer ticker.Stop()
	for {
		select {
		case <-jm.stop:
			return
		case now := <-ticker.C:
			jm.sweep(now)
		}
	}
}

// sweep forgets tombstones older than the TTL and finishes unstarted jobs
// whose composition went idle past the same TTL (a client that timed out
// or died mid-composition): their unstarted assignments are cancelled like
// any other ended job's, and the nodes report the freed memory themselves.
func (jm *JobManager) sweep(now time.Time) {
	ttl := jm.cfg.TombstoneTTL
	var abandoned []*jobState
	jm.mu.Lock()
	n := 0
	for n < len(jm.tombQ) && now.Sub(jm.tombQ[n].finishedAt) >= ttl {
		delete(jm.tombs, jm.tombQ[n].id)
		jm.tombQ[n] = nil
		n++
	}
	jm.tombQ = jm.tombQ[n:]
	for _, j := range jm.jobs {
		j.mu.Lock()
		if !j.notified && !j.started && now.Sub(j.idleSince) >= ttl {
			j.notified = true
			abandoned = append(abandoned, j)
		}
		j.mu.Unlock()
	}
	jm.mu.Unlock()
	for _, j := range abandoned {
		jm.finishJob(j, outcomeAbandoned, "job abandoned", "", nil)
	}
}
