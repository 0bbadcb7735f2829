// Experiment T-J: the binary wire codec vs the gob baseline.
//
// The micro section measures, per hot message kind, the encoded payload
// size and the combined encode+decode cost of the hand-rolled binary codec
// against the pre-refactor behavior (a fresh reflection-based gob encoder
// per payload, which re-transmits full type descriptors on every message).
// The end-to-end section re-runs the 32-task batch admission and a
// tuple-space bag drain with the process-wide codec toggled, so the wire
// win is demonstrated on the full protocol stack, not just in isolation.
// Results are printed and snapshotted to BENCH_wire.json.

package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"reflect"
	"time"

	"cn"
	"cn/internal/msg"
	"cn/internal/protocol"
	"cn/internal/task"
	"cn/internal/tuplespace"
	"cn/internal/wire"
)

// wireKindRow is one message kind's micro measurement.
type wireKindRow struct {
	Kind       string  `json:"kind"`
	GobBytes   int     `json:"gob_bytes"`
	BinBytes   int     `json:"bin_bytes"`
	GobNsPerOp float64 `json:"gob_ns_op"`
	BinNsPerOp float64 `json:"bin_ns_op"`
}

// wireE2ERow is one end-to-end scenario under one codec.
type wireE2ERow struct {
	Scenario  string  `json:"scenario"`
	Codec     string  `json:"codec"`
	MedianMS  float64 `json:"median_ms,omitempty"`
	OpsPerSec float64 `json:"ops_per_sec,omitempty"`
}

// wireSnapshot is the BENCH_wire.json document.
type wireSnapshot struct {
	Experiment  string        `json:"experiment"`
	GeneratedAt time.Time     `json:"generated_at"`
	Kinds       []wireKindRow `json:"kinds"`
	E2E         []wireE2ERow  `json:"e2e"`
}

// wireBodies returns the per-kind micro corpus: realistic bodies for the
// protocol's hot message kinds.
func wireBodies() []struct {
	kind string
	body any
} {
	spec := func(name string) *task.Spec {
		return &task.Spec{
			Name: name, Class: "bench.Noop", Archive: "bench.jar",
			Req: task.Requirements{MemoryMB: 100, RunModel: task.RunAsThreadInTM},
		}
	}
	beats := make([]protocol.TaskBeat, 8)
	for i := range beats {
		beats[i] = protocol.TaskBeat{JobID: "node1-job1", Task: fmt.Sprintf("t%02d", i), Running: true, Progress: uint64(i * 13)}
	}
	items := make([]protocol.TaskCreate, 8)
	for i := range items {
		items[i] = protocol.TaskCreate{Spec: spec(fmt.Sprintf("t%02d", i)), Archive: protocol.ArchiveRef{Name: "bench.jar", Digest: "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"}}
	}
	return []struct {
		kind string
		body any
	}{
		{"HEARTBEAT", &protocol.Heartbeat{Node: "node1", Seq: 42, Beats: beats}},
		{"HEARTBEAT_ACK", &protocol.HeartbeatAck{Node: "node1", Seq: 42}},
		{"ASSIGN_TASKS", &protocol.AssignTasksReq{JobID: "node1-job1", JobManager: "node1", ClientNode: "client-1", Items: items}},
		{"TASKS_ASSIGNED", &protocol.AssignTasksResp{Fetched: 1}},
		{"TS_OUT", &protocol.TSOpReq{ParkMS: 1000, Tuple: tuplespace.Tuple{"work", 7}}},
		{"TS_REPLY", &protocol.TSOpResp{OK: true, Tuple: tuplespace.Tuple{"res", 7}}},
		{"TASK_EVENTS", &protocol.TaskEvents{JobID: "node1-job1", Node: "node2", Events: []protocol.TaskEventItem{
			{Kind: msg.KindTaskStarted, Task: "t03"}, {Kind: msg.KindTaskCompleted, Task: "t03"}}}},
		{"USER", &protocol.UserPayload{JobID: "node1-job1", FromTask: "t03", ToTask: "client", Data: make([]byte, 256)}},
		{"JM_OFFER", &protocol.JMOffer{Node: "node1", FreeMemoryMB: 64000, ActiveJobs: 2}},
		{"TASK_OFFER", &protocol.TMOffer{Node: "node1", FreeMemoryMB: 64000, RunningTasks: 3}},
		{"EXEC_TASK", &protocol.ExecTaskReq{JobID: "node1-job1", Tasks: []string{"t03"}}},
		{"BLOB_CHUNK", &protocol.BlobChunkReq{JobID: "node1-job1", Digest: "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef", MaxBytes: protocol.BlobChunkBytes}},
	}
}

// gobEncode mirrors the pre-refactor EncodePayload: fresh encoder, full
// type descriptor, every call.
func gobEncode(v any) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		log.Fatal(err)
	}
	return buf.Bytes()
}

// measureKind times encode+decode round trips for one body under both
// codecs.
func measureKind(kind string, body any, iters int) wireKindRow {
	fresh := func() any { return reflect.New(reflect.TypeOf(body).Elem()).Interface() }

	binEnc, err := wire.Default.Marshal(body)
	if err != nil {
		log.Fatalf("%s: %v", kind, err)
	}
	gobEnc := gobEncode(body)

	start := time.Now()
	for i := 0; i < iters; i++ {
		enc, err := wire.Default.Marshal(body)
		if err != nil {
			log.Fatal(err)
		}
		if err := wire.Default.Unmarshal(enc, fresh()); err != nil {
			log.Fatal(err)
		}
	}
	binNs := float64(time.Since(start).Nanoseconds()) / float64(iters)

	start = time.Now()
	for i := 0; i < iters; i++ {
		enc := gobEncode(body)
		if err := gob.NewDecoder(bytes.NewReader(enc)).Decode(fresh()); err != nil {
			log.Fatal(err)
		}
	}
	gobNs := float64(time.Since(start).Nanoseconds()) / float64(iters)

	return wireKindRow{
		Kind:       kind,
		GobBytes:   len(gobEnc),
		BinBytes:   len(binEnc),
		GobNsPerOp: gobNs,
		BinNsPerOp: binNs,
	}
}

// withCodec runs f under the named payload codec and restores the binary
// codec afterwards. Nothing else may be using the fabric while the codec
// is switched; each scenario boots and tears down its own cluster inside f.
func withCodec(name string, f func()) {
	switch name {
	case "gob":
		msg.SetCodec(nil)
	case "binary":
		msg.SetCodec(wire.Default)
	default:
		log.Fatalf("unknown codec %q", name)
	}
	defer msg.SetCodec(wire.Default)
	f()
}

// admission32 measures the median 32-task batch admission on an 8-node
// cluster (the T-G batch configuration) under the active codec.
func admission32(reps int) time.Duration {
	const tasks = 32
	c, err := cn.StartCluster(cn.ClusterOptions{Nodes: 8, Registry: newRegistry(), MemoryMB: 64000})
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
	return timeIt(reps, func() {
		job, err := cl.CreateJob(fmt.Sprintf("wire-adm-%d", jobs), cn.JobRequirements{})
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
		if _, err := job.CreateTasks(specs, map[string]*cn.Archive{ar.Name: ar}); err != nil {
			log.Fatal(err)
		}
		if err := job.Cancel("wire admission bench"); err != nil {
			log.Fatal(err)
		}
		jobs++
	})
}

// tuplespaceOps measures wire tuple-space throughput (ops/sec) with 4
// workers draining a 128-item bag under the active codec.
func tuplespaceOps(reps int) float64 {
	const items = 128
	const workers = 4
	c, cl := startCluster(4)
	defer c.Close()
	defer cl.Close()
	job, err := cl.CreateJob("wire-ts", cn.JobRequirements{})
	if err != nil {
		log.Fatal(err)
	}
	specs := make([]*cn.TaskSpec, workers)
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
	start := time.Now()
	for r := 0; r < reps; r++ {
		pending := make(map[int]bool, items)
		for i := 0; i < items; i++ {
			pending[i] = true
			if err := space.Out(cn.Tuple{"work", i}); err != nil {
				log.Fatal(err)
			}
		}
		deadline := time.Now().Add(60 * time.Second)
		for len(pending) > 0 {
			if time.Now().After(deadline) {
				log.Fatalf("wire tuplespace bench stalled; %d items outstanding", len(pending))
			}
			ictx, icancel := context.WithTimeout(context.Background(), 5*time.Second)
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
			delete(pending, tu[1].(int))
		}
	}
	dur := time.Since(start)
	prog, ok := c.JobProgress(job.JMNode, job.ID)
	if !ok {
		log.Fatalf("no census for job %s", job.ID)
	}
	for i := 0; i < workers; i++ {
		if err := space.Out(cn.Tuple{"work", -1}); err != nil {
			log.Fatal(err)
		}
	}
	wctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := job.Wait(wctx); err != nil {
		log.Fatal(err)
	}
	return float64(prog.TSOps) / dur.Seconds()
}

// wireTable is experiment T-J: binary codec vs gob baseline, micro and
// end-to-end, snapshotted to BENCH_wire.json.
func wireTable(reps int, outPath string) {
	header("T-J  Binary wire codec vs gob baseline")
	snap := wireSnapshot{Experiment: "T-J wire codec", GeneratedAt: time.Now().UTC()}

	iters := 2000 * reps
	fmt.Printf("%-16s %10s %10s %8s %12s %12s %9s\n",
		"kind", "gob B", "bin B", "ratio", "gob ns/op", "bin ns/op", "speedup")
	for _, c := range wireBodies() {
		row := measureKind(c.kind, c.body, iters)
		snap.Kinds = append(snap.Kinds, row)
		fmt.Printf("%-16s %10d %10d %7.1fx %12.0f %12.0f %8.1fx\n",
			row.Kind, row.GobBytes, row.BinBytes,
			float64(row.GobBytes)/float64(row.BinBytes),
			row.GobNsPerOp, row.BinNsPerOp,
			row.GobNsPerOp/row.BinNsPerOp)
	}

	fmt.Printf("\n%-24s %10s %14s %14s\n", "scenario", "codec", "median", "ops/sec")
	for _, codec := range []string{"gob", "binary"} {
		withCodec(codec, func() {
			d := admission32(reps)
			snap.E2E = append(snap.E2E, wireE2ERow{Scenario: "admission-32task-8node", Codec: codec,
				MedianMS: float64(d) / float64(time.Millisecond)})
			fmt.Printf("%-24s %10s %14v %14s\n", "admission-32task-8node", codec, d, "-")
		})
	}
	for _, codec := range []string{"gob", "binary"} {
		withCodec(codec, func() {
			ops := tuplespaceOps(reps)
			snap.E2E = append(snap.E2E, wireE2ERow{Scenario: "tuplespace-4worker", Codec: codec, OpsPerSec: ops})
			fmt.Printf("%-24s %10s %14s %14.0f\n", "tuplespace-4worker", codec, "-", ops)
		})
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
