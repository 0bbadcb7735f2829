package jobmgr_test

import (
	"testing"
	"time"

	"cn/internal/cluster"
	"cn/internal/protocol"
	"cn/internal/task"
)

// TestAdopterProbesTheOrigin: a lapsed lease alone does not move a job.
// node2 hosts a job whose image node1 and node3 hold. node2's TaskManager
// stops, so node2's lease lapses at every JobManager while its JobManager
// still answers: node1, the elected adopter, PINGs it each time and adopts
// nothing. Once node2 is power-cut the PING goes unanswered, and node1
// adopts the job. The job's one task must not run on node2, or stopping
// node2's TaskManager would fail the job and its image would be dropped
// before node1 probes: it is placed when every TaskManager offers the same
// figures, so the planner's node-name tie-break puts it on node1.
func TestAdopterProbesTheOrigin(t *testing.T) {
	c, err := cluster.Start(cluster.Config{
		Nodes:             3,
		MemoryMB:          64000,
		Registry:          lifecycleRegistry(),
		HeartbeatInterval: 10 * time.Millisecond,
		SuspectAfter:      50 * time.Millisecond,
		DeadAfter:         100 * time.Millisecond,
		CheckpointEvery:   time.Hour, // one round, when this test says so
		TraceSample:       -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	waitFor := func(what string, ok func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !ok(); time.Sleep(2 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	adopter := c.Server("node1").JobManager()
	frames := func(kind string) int64 { return c.WireStats().ByKind[kind] }

	cl := connect(t, c.Network())
	// node1 meets node2 in a solicitation round of its own: node2's first
	// beat may not have reached it yet.
	warm, err := cl.CreateJobOn("node1", "warm", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Release()
	if _, err := warm.CreateTasks([]*task.Spec{spec("t", "life.Noop")}, nil); err != nil {
		t.Fatal(err)
	}
	if err := warm.Cancel("only its placement round was wanted"); err != nil {
		t.Fatal(err)
	}
	waitFor("node1 to retire its own job", func() bool { live, _ := adopter.TableSizes(); return live == 0 })
	_, retired := adopter.TableSizes()
	// The warm job's task may still hold its reservation on node1, which
	// would make node2 the freer node.
	for _, n := range c.Nodes() {
		tm := c.Server(n).TaskManager()
		waitFor(n+"'s TaskManager to hold no reservation", func() bool { return tm.FreeMemoryMB() == 64000 })
	}

	j, err := cl.CreateJobOn("node2", "probed", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Release()
	placed, err := j.CreateTasks([]*task.Spec{spec("t", "life.Gate")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if placed["t"] == "node2" {
		t.Fatal("the job's task was placed on node2, whose TaskManager this test stops")
	}
	if err := j.Start(); err != nil {
		t.Fatal(err)
	}
	c.Server("node2").JobManager().CheckpointNow()
	waitFor("node1 to hold the job's image", func() bool { return adopter.PeerCheckpoints() == 1 })

	c.Server("node2").TaskManager().Close()
	waitFor("three probes of node2", func() bool {
		if n := frames("JM_ADOPT"); n != 0 {
			t.Fatalf("%d JM_ADOPT frames while node2 answers PING", n)
		}
		return frames("PING") >= 3
	})
	if live, r := adopter.TableSizes(); live != 0 || r != retired {
		t.Fatalf("node1 holds %d live and %d retired jobs, want 0 and %d", live, r, retired)
	}
	if got := j.Manager(); got != "node2" {
		t.Fatalf("the job moved to %s while node2 answers", got)
	}
	if n := adopter.PeerCheckpoints(); n != 1 {
		t.Fatalf("node1 holds %d images after probing, want the job's 1", n)
	}

	if err := c.KillNode("node2"); err != nil {
		t.Fatal(err)
	}
	waitFor("the job to follow its adoption to node1", func() bool { return j.Manager() == "node1" })
	if frames("JM_ADOPT") == 0 {
		t.Fatal("the job moved without a JM_ADOPT")
	}
}
