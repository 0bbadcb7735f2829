package server_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"cn/internal/archive"
	"cn/internal/config"
	"cn/internal/msg"
	"cn/internal/protocol"
	"cn/internal/server"
	"cn/internal/task"
	"cn/internal/transport"
)

func testRegistry() *task.Registry {
	r := task.NewRegistry()
	r.MustRegister("srv.Noop", func() task.Task {
		return task.Func(func(task.Context) error { return nil })
	})
	return r
}

// startServer boots one CN server plus a raw protocol client endpoint.
func startServer(t *testing.T) (*server.Server, *transport.Caller) {
	t.Helper()
	net := transport.NewIdealNetwork()
	t.Cleanup(func() { net.Close() })
	srv, err := server.Start(net, "n1", config.Config{Registry: testRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	var caller *transport.Caller
	ep, err := net.Attach("raw-client", func(m *msg.Message) { caller.Handle(m) })
	if err != nil {
		t.Fatal(err)
	}
	caller = transport.NewCaller(ep)
	return srv, caller
}

func call(t *testing.T, caller *transport.Caller, kind msg.Kind, body any) *msg.Message {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	m := protocol.Body(kind,
		msg.Address{Node: "raw-client", Task: protocol.ClientTaskName},
		msg.Address{Node: "n1"}, body)
	reply, err := caller.Call(ctx, "n1", m)
	if err != nil {
		t.Fatalf("call %v: %v", kind, err)
	}
	return reply
}

func TestServerAccessors(t *testing.T) {
	srv, _ := startServer(t)
	if srv.Node() != "n1" {
		t.Errorf("Node = %q", srv.Node())
	}
	if srv.JobManager() == nil || srv.TaskManager() == nil {
		t.Error("manager accessors nil")
	}
}

func TestPingPong(t *testing.T) {
	_, caller := startServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// A PING carries no body, as every sender builds it.
	ping := msg.New(msg.KindPing, msg.Address{Node: "raw-client"}, msg.Address{Node: "n1"}, nil)
	if reply, err := caller.Call(ctx, "n1", ping); err != nil || reply.Kind != msg.KindPong {
		t.Errorf("reply = %v, err %v", reply, err)
	}
}

// rawJob is a job a raw-wire test opened.
type rawJob struct{ JobID string }

// openRaw opens a job named name with a header-only CREATE_TASKS, the
// frame a client's first call sends, under an ID of raw-client's.
func openRaw(t *testing.T, caller *transport.Caller, name string) rawJob {
	t.Helper()
	id := "raw-client." + name
	reply := call(t, caller, msg.KindCreateTasks, protocol.CreateTasksReq{JobID: id, ClientNode: "raw-client", Name: name})
	if reply.Kind != msg.KindTasksAccepted {
		t.Fatalf("create job %s reply = %v", id, reply.Kind)
	}
	return rawJob{JobID: id}
}

func TestRawProtocolJobLifecycle(t *testing.T) {
	// Drive the wire protocol directly: create job, create tasks, start,
	// observe the terminal state. This pins the message formats the API
	// client relies on.
	srv, caller := startServer(t)

	created := openRaw(t, caller, "raw")

	spec := &task.Spec{Name: "t", Class: "srv.Noop",
		Req: task.Requirements{MemoryMB: 10, RunModel: task.RunAsThreadInTM}}
	reply := call(t, caller, msg.KindCreateTasks, protocol.CreateTasksReq{
		JobID: created.JobID, Tasks: []protocol.TaskCreate{{Spec: spec}},
	})
	if reply.Kind != msg.KindTasksAccepted {
		t.Fatalf("create tasks reply = %v", reply.Kind)
	}
	var placed protocol.CreateTasksResp
	if err := protocol.Decode(reply, &placed); err != nil {
		t.Fatal(err)
	}
	if placed.Placements["t"] != "n1" {
		t.Errorf("placements = %v", placed.Placements)
	}

	reply = call(t, caller, msg.KindCreateTasks, protocol.CreateTasksReq{JobID: created.JobID, Start: true})
	if reply.Kind != msg.KindTasksAccepted {
		t.Fatalf("start reply = %v", reply.Kind)
	}
	// The JOB_COMPLETED event arrives as a non-correlated message; the
	// JobManager's active-job count dropping to zero marks completion.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if srv.JobManager().ActiveJobs() == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job never completed; active jobs = %d", srv.JobManager().ActiveJobs())
}

func TestSolicitUnwillingWhenOverMemory(t *testing.T) {
	net := transport.NewIdealNetwork()
	defer net.Close()
	srv, err := server.Start(net, "tiny", config.Config{MemoryMB: 100, Registry: testRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var caller *transport.Caller
	ep, err := net.Attach("probe", func(m *msg.Message) { caller.Handle(m) })
	if err != nil {
		t.Fatal(err)
	}
	caller = transport.NewCaller(ep)

	// Solicit with requirements beyond the node's capacity: silence.
	m := protocol.Body(msg.KindJobManagerSolicit,
		msg.Address{Node: "probe", Task: protocol.ClientTaskName},
		msg.Address{}, protocol.JobRequirements{MinMemoryMB: 10_000})
	if err := ep.Join(""); err == nil {
		t.Error("empty group join accepted")
	}
	replies, err := caller.Gather(protocol.GroupJobManagers, m, 50*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != 0 {
		t.Errorf("over-memory solicit got %d replies", len(replies))
	}

	// Within capacity: one offer.
	m2 := protocol.Body(msg.KindJobManagerSolicit,
		msg.Address{Node: "probe", Task: protocol.ClientTaskName},
		msg.Address{}, protocol.JobRequirements{MinMemoryMB: 50})
	replies, err = caller.Gather(protocol.GroupJobManagers, m2, 50*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != 1 {
		t.Errorf("solicit got %d replies, want 1", len(replies))
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	net := transport.NewIdealNetwork()
	defer net.Close()
	srv, err := server.Start(net, "x", config.Config{Registry: testRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestServerRejectsEmptyNode(t *testing.T) {
	net := transport.NewIdealNetwork()
	defer net.Close()
	if _, err := server.Start(net, "", config.Config{Registry: testRegistry()}); err == nil {
		t.Error("empty node name accepted")
	}
}

// startMany boots n CN servers on one fabric plus a raw client caller.
func startMany(t *testing.T, n int, cfg config.Config) ([]*server.Server, *transport.Caller) {
	t.Helper()
	net := transport.NewIdealNetwork()
	t.Cleanup(func() { net.Close() })
	servers := make([]*server.Server, n)
	for i := range servers {
		c := cfg
		if c.Registry == nil {
			c.Registry = testRegistry()
		}
		srv, err := server.Start(net, fmt.Sprintf("n%d", i+1), c)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		servers[i] = srv
	}
	var caller *transport.Caller
	ep, err := net.Attach("raw-client", func(m *msg.Message) { caller.Handle(m) })
	if err != nil {
		t.Fatal(err)
	}
	caller = transport.NewCaller(ep)
	return servers, caller
}

func TestBatchCreateTasksPlacesAndDedupsArchives(t *testing.T) {
	reg := testRegistry()
	reg.MustRegister("srv.Pkg", func() task.Task {
		return task.Func(func(task.Context) error { return nil })
	})
	servers, caller := startMany(t, 3, config.Config{MemoryMB: 1000, Registry: reg})

	created := openRaw(t, caller, "batch")

	ar, err := archive.NewBuilder("pkg.jar", "srv.Pkg").AddFile("data", []byte("payload")).Build()
	if err != nil {
		t.Fatal(err)
	}
	req := protocol.CreateTasksReq{
		JobID: created.JobID,
		Blobs: map[string][]byte{ar.Digest(): ar.Bytes()},
	}
	const tasks = 9
	for i := 0; i < tasks; i++ {
		req.Tasks = append(req.Tasks, protocol.TaskCreate{
			Spec: &task.Spec{Name: fmt.Sprintf("t%d", i), Class: "srv.Pkg",
				Req: task.Requirements{MemoryMB: 100, RunModel: task.RunAsThreadInTM}},
			Archive: protocol.ArchiveRef{Name: ar.Name, Digest: ar.Digest()},
		})
	}
	reply := call(t, caller, msg.KindCreateTasks, req)
	if reply.Kind != msg.KindTasksAccepted {
		t.Fatalf("create tasks reply = %v: %s", reply.Kind, reply.Payload)
	}
	var resp protocol.CreateTasksResp
	if err := protocol.Decode(reply, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Placements) != tasks {
		t.Fatalf("placements = %v", resp.Placements)
	}

	// Content addressing: each node holds the blob at most once however
	// many of the nine tasks landed on it.
	var transfers int64
	usedNodes := make(map[string]bool)
	for _, n := range resp.Placements {
		usedNodes[n] = true
	}
	for _, srv := range servers {
		n := srv.TaskManager().BlobCache().Transfers()
		if n > 1 {
			t.Errorf("node %s transferred the blob %d times", srv.Node(), n)
		}
		if n == 1 && !usedNodes[srv.Node()] {
			t.Errorf("node %s holds the blob but hosts no task", srv.Node())
		}
		transfers += n
	}
	if transfers < 1 || transfers > int64(len(usedNodes)) {
		t.Errorf("cluster transfers = %d for %d used nodes", transfers, len(usedNodes))
	}

	// One batched admission must not have cost one solicitation round per
	// task.
	var rounds int64
	for _, srv := range servers {
		rounds += srv.JobManager().PlacementStats().SolicitRounds
	}
	if rounds > 2 {
		t.Errorf("solicit rounds = %d for one batch, want <= 2", rounds)
	}

	// The batch executes to completion.
	reply = call(t, caller, msg.KindCreateTasks, protocol.CreateTasksReq{JobID: created.JobID, Start: true})
	if reply.Kind != msg.KindTasksAccepted {
		t.Fatalf("start reply = %v", reply.Kind)
	}
	host := servers[0].JobManager()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if host.ActiveJobs() == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("batched job never completed")
}

func TestTombstoneEvictionAndActiveJobCount(t *testing.T) {
	servers, caller := startMany(t, 1, config.Config{TombstoneTTL: 50 * time.Millisecond})
	jm := servers[0].JobManager()

	created := openRaw(t, caller, "tomb")
	spec := &task.Spec{Name: "t", Class: "srv.Noop",
		Req: task.Requirements{MemoryMB: 10, RunModel: task.RunAsThreadInTM}}
	call(t, caller, msg.KindCreateTasks, protocol.CreateTasksReq{JobID: created.JobID, Tasks: []protocol.TaskCreate{{Spec: spec}}})
	call(t, caller, msg.KindCreateTasks, protocol.CreateTasksReq{JobID: created.JobID, Start: true})

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && jm.ActiveJobs() != 0 {
		time.Sleep(2 * time.Millisecond)
	}
	if jm.ActiveJobs() != 0 {
		t.Fatal("job never completed")
	}
	// The finished job has left the live table for the tombstone index,
	// which answers with its final census until the janitor expires it;
	// then progress queries stop resolving.
	if p, ok := jm.JobProgress(created.JobID); ok && (p.Total != 1 || p.Done != 1) {
		t.Errorf("tombstone census = %+v, want 1 of 1 done", p)
	}
	for time.Now().Before(deadline) {
		if _, ok := jm.JobProgress(created.JobID); !ok {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("tombstone never evicted")
}

func TestOfferCountsOnlyLiveJobs(t *testing.T) {
	servers, caller := startMany(t, 1, config.Config{TombstoneTTL: -1}) // keep tombstones
	jm := servers[0].JobManager()

	// Run one job to completion so a tombstone exists.
	created := openRaw(t, caller, "done")
	spec := &task.Spec{Name: "t", Class: "srv.Noop",
		Req: task.Requirements{MemoryMB: 10, RunModel: task.RunAsThreadInTM}}
	call(t, caller, msg.KindCreateTasks, protocol.CreateTasksReq{JobID: created.JobID, Tasks: []protocol.TaskCreate{{Spec: spec}}})
	call(t, caller, msg.KindCreateTasks, protocol.CreateTasksReq{JobID: created.JobID, Start: true})
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && jm.ActiveJobs() != 0 {
		time.Sleep(2 * time.Millisecond)
	}

	// A JobManager offer must advertise zero active jobs, not the
	// tombstone count.
	sm := protocol.Body(msg.KindJobManagerSolicit,
		msg.Address{Node: "raw-client", Task: protocol.ClientTaskName},
		msg.Address{}, protocol.JobRequirements{})
	replies, err := caller.Gather(protocol.GroupJobManagers, sm, 100*time.Millisecond, func(*msg.Message) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != 1 {
		t.Fatalf("got %d offers", len(replies))
	}
	var offer protocol.JMOffer
	if err := protocol.Decode(replies[0], &offer); err != nil {
		t.Fatal(err)
	}
	if offer.ActiveJobs != 0 {
		t.Errorf("offer.ActiveJobs = %d, want 0 (tombstones excluded)", offer.ActiveJobs)
	}
}
