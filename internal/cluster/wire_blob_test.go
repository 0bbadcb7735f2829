package cluster_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"cn/internal/api"
	"cn/internal/archive"
	"cn/internal/cluster"
	"cn/internal/msg"
	"cn/internal/protocol"
	"cn/internal/task"
	"cn/internal/transport"
	"cn/internal/wire"
)

// bigArchive builds an archive around size payload bytes — more than the
// transport frame limit, so it can only travel chunked. The payload is
// pseudo-random (incompressible) to defeat zip deflate.
func bigArchive(t *testing.T, class string, size int) *archive.Archive {
	t.Helper()
	payload := make([]byte, size)
	rand.New(rand.NewSource(7)).Read(payload)
	ar, err := archive.NewBuilder("big.jar", class).AddFile("model.bin", payload).Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(ar.Bytes()) <= wire.MaxFrameBytes {
		t.Fatalf("archive is %d bytes, need > MaxFrameBytes %d", len(ar.Bytes()), wire.MaxFrameBytes)
	}
	return ar
}

// TestTCPMultiChunkArchiveDistributesAndRecovers is the blob-streaming
// acceptance test: an archive larger than MaxFrameBytes is uploaded to the
// JobManager chunk by chunk, distributed to TaskManagers via chunked
// digest pulls, digest-verified, and executed — on a real-socket TCP
// cluster. A worker is then power-cut mid-job and the re-placed tasks
// re-fetch the same multi-chunk blob on a surviving node.
func TestTCPMultiChunkArchiveDistributesAndRecovers(t *testing.T) {
	const class = "wire.BigWork"
	reg := task.NewRegistry()
	reg.MustRegister(class, func() task.Task {
		return task.Func(func(ctx task.Context) error {
			deadline := time.Now().Add(40 * time.Millisecond)
			for time.Now().Before(deadline) {
				if ctx.Done() {
					return task.ErrStopped
				}
				time.Sleep(2 * time.Millisecond)
			}
			return ctx.SendClient([]byte(ctx.TaskName()))
		})
	})

	c, err := cluster.Start(fastHealth(cluster.Config{
		Nodes:          4,
		Transport:      cluster.TransportTCP,
		MemoryMB:       64000,
		Registry:       reg,
		MaxTaskRetries: 3,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	cl, err := api.Initialize(c.Network(), api.Options{DiscoveryWindow: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ar := bigArchive(t, class, wire.MaxFrameBytes+wire.MaxFrameBytes/4)
	j, err := cl.CreateJobOn("node1", "bigblob", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	const tasks = 8
	specs := make([]*task.Spec, tasks)
	for i := range specs {
		specs[i] = &task.Spec{
			Name: fmt.Sprintf("b%02d", i), Class: class, Archive: ar.Name,
			Req: task.Requirements{MemoryMB: 100, RunModel: task.RunAsThreadInTM},
		}
	}
	placements, err := j.CreateTasks(specs, map[string]*archive.Archive{ar.Name: ar})
	if err != nil {
		t.Fatalf("multi-chunk archive admission failed: %v", err)
	}
	if got := c.BlobTransfers(); got == 0 {
		t.Fatal("no blob transfers recorded; archive never reached a TaskManager")
	}
	// Every chosen node digest-verified the reassembled archive into its
	// cache.
	for _, node := range placements {
		if srv := c.Server(node); srv != nil && !srv.TaskManager().BlobCache().Has(ar.Digest()) {
			t.Errorf("node %s lacks blob %.12s… after assignment", node, ar.Digest())
		}
	}

	victim := ""
	for _, node := range placements {
		if node != "node1" {
			victim = node
			break
		}
	}
	if victim == "" {
		t.Skip("all tasks placed on the JobManager node; no victim to kill")
	}

	if err := j.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(15 * time.Millisecond)
	if err := c.KillNode(victim); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := j.Wait(ctx)
	if err != nil {
		t.Fatalf("job did not finish after node kill: %v", err)
	}
	if res.Failed {
		t.Fatalf("job failed instead of recovering: %+v", res)
	}
	seen := make(map[string]bool)
	for {
		from, _, ok, err := j.TryGetMessage()
		if errors.Is(err, api.ErrJobFinished) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		seen[from] = true
	}
	for i := 0; i < tasks; i++ {
		if name := fmt.Sprintf("b%02d", i); !seen[name] {
			t.Errorf("no result from task %s", name)
		}
	}
	t.Logf("archive %d bytes (> %d frame limit), killed %s, retries=%d",
		len(ar.Bytes()), wire.MaxFrameBytes, victim, j.Progress().Retried)
}

// TestLargeArchiveShipsByteIdentical: a 5 MiB archive — seven chunks up to
// the JobManager in BLOB_CHUNK request tails, seven down to each
// TaskManager in reply tails — ends up in every assigned node's cache as
// exactly the bytes the client built, on sockets (scatter-gather send,
// posted receive) and on the in-memory fabric (tails handed over by
// reference and copied into place).
func TestLargeArchiveShipsByteIdentical(t *testing.T) {
	const class = "wire.Shipped"
	reg := task.NewRegistry()
	reg.MustRegister(class, func() task.Task {
		return task.Func(func(task.Context) error { return nil })
	})
	for name, transport := range map[string]cluster.Transport{"mem": cluster.TransportMem, "tcp": cluster.TransportTCP} {
		t.Run(name, func(t *testing.T) {
			c, err := cluster.Start(cluster.Config{Nodes: 3, Transport: transport, MemoryMB: 64000, Registry: reg})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Stop()
			cl, err := api.Initialize(c.Network(), api.Options{DiscoveryWindow: 50 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()

			ar := bigArchive(t, class, 5<<20)
			j, err := cl.CreateJobOn("node1", "ship", protocol.JobRequirements{})
			if err != nil {
				t.Fatal(err)
			}
			specs := make([]*task.Spec, 6)
			for i := range specs {
				specs[i] = &task.Spec{
					Name: fmt.Sprintf("w%d", i), Class: class, Archive: ar.Name,
					Req: task.Requirements{MemoryMB: 100, RunModel: task.RunAsThreadInTM},
				}
			}
			placements, err := j.CreateTasks(specs, map[string]*archive.Archive{ar.Name: ar})
			if err != nil {
				t.Fatalf("5 MiB archive admission failed: %v", err)
			}
			nodes := make(map[string]bool)
			for _, node := range placements {
				nodes[node] = true
			}
			for node := range nodes {
				got, ok := c.Server(node).TaskManager().BlobCache().GetBlob(ar.Digest())
				if !ok || !bytes.Equal(got, ar.Bytes()) {
					t.Errorf("node %s holds %d bytes for the archive (present %v), want the %d shipped", node, len(got), ok, len(ar.Bytes()))
				}
			}
			if ws := c.WireStats(); ws.FrameErrors != 0 || ws.BulkDrops != 0 {
				t.Errorf("%d frame errors, %d bulk drops", ws.FrameErrors, ws.BulkDrops)
			}
			if err := j.Cancel("shipped"); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTCPManySmallArchivesAggregateOverFrameLimit: individually-inlineable
// archives whose AGGREGATE exceeds MaxFrameBytes must still admit — the
// inline budget is per message, not per blob, so the overflow is
// chunk-streamed on upload, and every node pulls what it was assigned one
// archive at a time.
func TestTCPManySmallArchivesAggregateOverFrameLimit(t *testing.T) {
	const class = "wire.SmallWork"
	reg := task.NewRegistry()
	reg.MustRegister(class, func() task.Task {
		return task.Func(func(task.Context) error { return nil })
	})
	c, err := cluster.Start(cluster.Config{
		Nodes:     3,
		Transport: cluster.TransportTCP,
		MemoryMB:  64000,
		Registry:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	cl, err := api.Initialize(c.Network(), api.Options{DiscoveryWindow: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// 12 distinct ~100 KiB incompressible archives: each under
	// MaxInlineBlob, together well past MaxFrameBytes.
	const n = 12
	rng := rand.New(rand.NewSource(11))
	archives := make(map[string]*archive.Archive, n)
	specs := make([]*task.Spec, n)
	total := 0
	for i := 0; i < n; i++ {
		payload := make([]byte, 100<<10)
		rng.Read(payload)
		name := fmt.Sprintf("small%02d.jar", i)
		ar, err := archive.NewBuilder(name, class).AddFile("data.bin", payload).Build()
		if err != nil {
			t.Fatal(err)
		}
		archives[name] = ar
		total += len(ar.Bytes())
		specs[i] = &task.Spec{
			Name: fmt.Sprintf("s%02d", i), Class: class, Archive: name,
			Req: task.Requirements{MemoryMB: 10, RunModel: task.RunAsThreadInTM},
		}
	}
	if total <= wire.MaxFrameBytes {
		t.Fatalf("aggregate archives %d bytes, need > MaxFrameBytes %d", total, wire.MaxFrameBytes)
	}

	j, err := cl.CreateJobOn("node1", "manysmall", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	placements, err := j.CreateTasks(specs, archives)
	if err != nil {
		t.Fatalf("aggregate-over-limit admission failed: %v", err)
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("s%02d", i)
		node := placements[name]
		if node == "" {
			t.Fatalf("task %s unplaced: %v", name, placements)
		}
		ar := archives[fmt.Sprintf("small%02d.jar", i)]
		if !c.Server(node).TaskManager().BlobCache().Has(ar.Digest()) {
			t.Errorf("node %s lacks blob for %s", node, name)
		}
	}
	if err := j.Cancel("aggregate admission test done"); err != nil {
		t.Fatal(err)
	}
}

// TestSmallArchivesTransferOncePerNodeAndDigest: a job with three small
// distinct archives spread over four nodes moves each archive to each node
// that got a task of it exactly once — BlobTransfers equals the (node,
// digest) pairs placed — and each of those transfers is one BLOB_CHUNK round
// trip: a TaskManager pulls what a ref names, nothing announces it first.
func TestSmallArchivesTransferOncePerNodeAndDigest(t *testing.T) {
	const class = "wire.Trio"
	reg := task.NewRegistry()
	reg.MustRegister(class, func() task.Task {
		return task.Func(func(task.Context) error { return nil })
	})
	c, err := cluster.Start(cluster.Config{Nodes: 4, Transport: cluster.TransportTCP, MemoryMB: 64000, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	cl, err := api.Initialize(c.Network(), api.Options{DiscoveryWindow: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	archives := make(map[string]*archive.Archive, 3)
	var specs []*task.Spec
	for a := 0; a < 3; a++ {
		name := fmt.Sprintf("trio%d.jar", a)
		ar, err := archive.NewBuilder(name, class).AddFile("id", []byte(name)).Build()
		if err != nil {
			t.Fatal(err)
		}
		archives[name] = ar
		for i := 0; i < 4; i++ {
			specs = append(specs, &task.Spec{Name: fmt.Sprintf("a%d-t%d", a, i), Class: class, Archive: name,
				Req: task.Requirements{MemoryMB: 10, RunModel: task.RunAsThreadInTM}})
		}
	}
	j, err := cl.CreateJobOn("node1", "trio", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	placements, err := j.CreateTasks(specs, archives)
	if err != nil {
		t.Fatal(err)
	}
	pairs := make(map[string]bool)
	for _, sp := range specs {
		node := placements[sp.Name]
		if !c.Server(node).TaskManager().BlobCache().Has(archives[sp.Archive].Digest()) {
			t.Errorf("node %s lacks the archive of %s", node, sp.Name)
		}
		pairs[node+"/"+sp.Archive] = true
	}
	if got := c.BlobTransfers(); got != int64(len(pairs)) {
		t.Errorf("BlobTransfers = %d, want %d: one per (node, digest) pair placed (%v)", got, len(pairs), placements)
	}
	// A writer counts a frame just after writing it, so the count can trail
	// the reply; it never passes what was sent.
	var chunks int64
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if chunks = c.WireStats().ByKind["BLOB_CHUNK"]; chunks >= int64(len(pairs)) {
			break
		}
	}
	if chunks != int64(len(pairs)) {
		t.Errorf("%d BLOB_CHUNK frames for %d small (node, digest) pairs, want one round trip each", chunks, len(pairs))
	}
	if err := j.Cancel("transfer census done"); err != nil {
		t.Fatal(err)
	}
}

// TestInlineBlobVerifiedAtCreateTasks: a CREATE_TASKS carrying wrong bytes
// under a digest is refused whole, with the reason a pushed blob failing its
// digest gets — and the digest is not poisoned for the job: the same digest
// sent again with its own bytes is accepted and distributed.
func TestInlineBlobVerifiedAtCreateTasks(t *testing.T) {
	const class = "wire.Inline"
	reg := task.NewRegistry()
	reg.MustRegister(class, func() task.Task {
		return task.Func(func(task.Context) error { return nil })
	})
	c, err := cluster.Start(cluster.Config{Nodes: 2, MemoryMB: 64000, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	cl, err := api.Initialize(c.Network(), api.Options{DiscoveryWindow: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	j, err := cl.CreateJobOn("node1", "inline", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	ar, err := archive.NewBuilder("inline.jar", class).AddFile("id", []byte("right")).Build()
	if err != nil {
		t.Fatal(err)
	}
	impostor, err := archive.NewBuilder("inline.jar", class).AddFile("id", []byte("wrong")).Build()
	if err != nil {
		t.Fatal(err)
	}

	var caller *transport.Caller
	ep, err := c.Network().Attach("forger", func(m *msg.Message) { caller.Handle(m) })
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	caller = transport.NewCaller(ep)
	sp := &task.Spec{Name: "t1", Class: class, Archive: ar.Name, Req: task.Requirements{MemoryMB: 10, RunModel: task.RunAsThreadInTM}}
	forged := protocol.Body(msg.KindCreateTasks,
		msg.Address{Node: "forger", Job: j.ID, Task: protocol.ClientTaskName}, msg.Address{Node: "node1", Job: j.ID},
		protocol.CreateTasksReq{JobID: j.ID, ClientNode: "forger", Name: "inline",
			Tasks: []protocol.TaskCreate{{Spec: sp, Archive: protocol.ArchiveRef{Name: ar.Name, Digest: ar.Digest(), Size: 1 << 40}}},
			Blobs: map[string][]byte{ar.Digest(): impostor.Bytes()}})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	reply, err := caller.Call(ctx, "node1", forged)
	if err != nil {
		t.Fatal(err)
	}
	var refusal protocol.JobEvent
	if reply.Kind != msg.KindJobFailed || protocol.Decode(reply, &refusal) != nil ||
		!strings.Contains(refusal.Err, "hashes to") || !strings.Contains(refusal.Err, "not the declared") {
		t.Fatalf("forged batch answered %s %+v, want it refused for its digest", reply.Kind, refusal)
	}
	if got := c.BlobTransfers(); got != 0 {
		t.Errorf("%d blob transfers after a refused batch", got)
	}

	placements, err := j.CreateTasks([]*task.Spec{sp}, map[string]*archive.Archive{ar.Name: ar})
	if err != nil {
		t.Fatalf("the digest's own bytes refused after the forgery: %v", err)
	}
	raw, ok := c.Server(placements["t1"]).TaskManager().BlobCache().GetBlob(ar.Digest())
	if !ok || !bytes.Equal(raw, ar.Bytes()) {
		t.Errorf("node %s caches the archive: %v, its own bytes: %v", placements["t1"], ok, bytes.Equal(raw, ar.Bytes()))
	}
	if err := j.Cancel("inline verification done"); err != nil {
		t.Fatal(err)
	}
}

// TestWireStatsObservable: the cluster-level wire snapshot must reflect
// real traffic — non-zero bytes and per-kind counters — on the TCP fabric.
func TestWireStatsObservable(t *testing.T) {
	c, err := cluster.Start(cluster.Config{Nodes: 2, Transport: cluster.TransportTCP, Registry: task.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	cl, err := api.Initialize(c.Network(), api.Options{DiscoveryWindow: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, _, err := cl.Discover(protocol.JobRequirements{}); err != nil {
		t.Fatal(err)
	}
	snap := c.WireStats()
	if snap.Sent == 0 || snap.BytesSent == 0 {
		t.Errorf("no traffic accounted: %+v", snap)
	}
	if snap.ByKind["JM_SOLICIT"] == 0 {
		t.Errorf("discovery solicitation not counted by kind: %v", snap.ByKind)
	}
}
