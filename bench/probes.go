package main

// Isolated probes: one layer's public function called in a loop, outside
// any window, on inputs taken from the workloads. They say what a layer
// costs alone, so a change in an end-to-end number can be traced to (or
// cleared of) a change in the layer itself. Each probe gets an equal slice
// of the run's probe time.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"cn/internal/api"
	"cn/internal/archive"
	"cn/internal/cnx"
	"cn/internal/core"
	"cn/internal/jobstore"
	"cn/internal/msg"
	"cn/internal/placement"
	"cn/internal/protocol"
	"cn/internal/task"
	"cn/internal/transform"
	"cn/internal/transport"
	"cn/internal/tuplespace"
	"cn/internal/wire"
)

const (
	// probeCount divides the probe time: 20 timed loops, and three slices'
	// worth for the archive-ship probe's three fixed 8 MiB jobs.
	probeCount    = 23
	probeMinIters = 20
)

// prober hands every probe the same time slice.
type prober struct {
	slice time.Duration
	ms    metricSet
	err   error
}

// timeOps calls fn for the slice (at least probeMinIters times) and returns
// the per-call durations in nanoseconds. batch > 1 times that many calls
// per sample, for calls too short for the clock.
func (p *prober) timeOps(batch int, fn func() error) samples {
	var out samples
	deadline := time.Now().Add(p.slice)
	for i := 0; i < probeMinIters || time.Now().Before(deadline); i++ {
		start := time.Now()
		for b := 0; b < batch; b++ {
			if err := fn(); err != nil {
				if p.err == nil {
					p.err = err
				}
				return out
			}
		}
		out = append(out, float64(time.Since(start))/float64(batch))
	}
	return out.sorted()
}

// p50 records the median of a probe under name, scaled to the metric's unit
// (div nanoseconds per unit).
func (p *prober) p50(name string, div float64, s samples) {
	p.ms.set(name, s.pct(0.5)/div, len(s))
}

const (
	perUS = 1e3
	perMS = 1e6
)

func runProbes(total time.Duration, reg *task.Registry, cfg runConfig, ms metricSet) error {
	p := &prober{slice: total / probeCount, ms: ms}
	rng := rand.New(rand.NewSource(cfg.Seed))
	p.compile(rng)
	p.placement(rng)
	p.wire()
	p.local(cfg)
	for _, sc := range []stackConfig{{TCP: true}, {}, {Portal: true, WAL: true}} {
		st, err := boot(sc, reg, cfg.OutDir)
		if err != nil {
			return err
		}
		if sc.WAL {
			p.walSubmit(st, rng)
		} else {
			p.live(st, rng)
		}
		st.stop()
	}
	if p.err != nil {
		return fmt.Errorf("bench: probe: %w", p.err)
	}
	return nil
}

// compile probes the front end on the mix's bodies.
func (p *prober) compile(rng *rand.Rand) {
	xmi := string(dynamicXMI(rng, "probe"))
	p.p50("transform.xmi2cnx_p50_us", perUS, p.timeOps(1, func() error {
		_, err := transform.XMI2CNXString(xmi, transform.Options{Args: core.FixedArgs(8)})
		return err
	}))
	for _, n := range []int{fanoutTasks, mixFanTasks} {
		body := string(fanCNX(rng, "probe", n))
		p.p50(fmt.Sprintf("cnx.parse_validate_fan%d_p50_us", n), perUS, p.timeOps(1, func() error {
			doc, err := cnx.ParseString(body)
			if err != nil {
				return err
			}
			return doc.Validate()
		}))
	}
}

func noopSpecs(rng *rand.Rand, n int) []*task.Spec {
	specs := make([]*task.Spec, n)
	for i := range specs {
		specs[i] = apiSpec(fmt.Sprintf("t%02d", i), noopClass)
		specs[i].Req.MemoryMB = 8 + rng.Intn(8)
	}
	return specs
}

// placement probes the planner on the fan-out shapes against four offers.
func (p *prober) placement(rng *rand.Rand) {
	offers := make([]protocol.TMOffer, clusterNodes)
	for i := range offers {
		offers[i] = protocol.TMOffer{Node: fmt.Sprintf("node%d", i+1), FreeMemoryMB: nodeMemoryMB, RunningTasks: rng.Intn(4)}
	}
	for _, n := range []int{fanoutTasks, mixFanTasks} {
		specs := noopSpecs(rng, n)
		p.p50(fmt.Sprintf("placement.plan_scored_%dx4_p50_us", n), perUS, p.timeOps(1, func() error {
			if _, unplaced, _ := placement.PlanScored(specs, offers, placement.Wants{}, placement.DefaultScorer{}); len(unplaced) > 0 {
				return fmt.Errorf("planner left %d of %d tasks unplaced", len(unplaced), n)
			}
			return nil
		}))
	}
}

// frame encodes m as it goes on the wire.
func frame(kind msg.Kind, body any) ([]byte, error) {
	m := protocol.Body(kind, msg.Address{Node: "node1", Job: "node1-job1"}, msg.Address{Node: "node2", Job: "node1-job1"}, body)
	return wire.AppendFrame(nil, m)
}

// wire probes the codec on the frames the workloads send most.
func (p *prober) wire() {
	items := make([]protocol.TaskCreate, fanoutTasks)
	for i, sp := range noopSpecs(rand.New(rand.NewSource(1)), fanoutTasks) {
		items[i] = protocol.TaskCreate{Spec: sp}
	}
	assign := protocol.AssignTasksReq{JobID: "node1-job1", JobManager: "node1", ClientNode: "portal", Items: items}
	encoded, err := frame(msg.KindAssignTasks, assign)
	if err != nil {
		p.err = err
		return
	}
	p.ms.set("wire.assign32_bytes", float64(len(encoded)), 0)
	p.p50("wire.assign32_encode_p50_us", perUS, p.timeOps(1, func() error {
		_, err := frame(msg.KindAssignTasks, assign)
		return err
	}))
	p.p50("wire.assign32_decode_p50_us", perUS, p.timeOps(1, func() error {
		m, err := wire.DecodeFrameBody(encoded[wire.FrameHeaderBytes:])
		if err != nil {
			return err
		}
		var req protocol.AssignTasksReq
		return protocol.Decode(m, &req)
	}))
	chunk := protocol.BlobChunkResp{Offset: 0, Total: shuffleBlob, Data: make([]byte, protocol.BlobChunkBytes)}
	p.p50("wire.chunk768k_encode_p50_us", perUS, p.timeOps(1, func() error {
		_, err := frame(msg.KindBlobChunkAck, chunk)
		return err
	}))
	out := protocol.TSOpReq{JobID: "node1-job1", FromTask: "w1",
		Fields: []protocol.TSField{{Kind: protocol.TSString, S: "res"}, {Kind: protocol.TSInt, I: 7}, {Kind: protocol.TSInt, I: 49}}}
	p.p50("wire.ts_out_roundtrip_p50_ns", 1, p.timeOps(64, func() error {
		enc, err := frame(msg.KindTSOut, out)
		if err != nil {
			return err
		}
		m, err := wire.DecodeFrameBody(enc[wire.FrameHeaderBytes:])
		if err != nil {
			return err
		}
		var req protocol.TSOpReq
		return protocol.Decode(m, &req)
	}))
}

// local probes the layers that need no cluster: the WAL, the blob cache,
// the tuple space and a bare TCP stream.
func (p *prober) local(cfg runConfig) {
	pj := &jobstore.PersistedJob{ID: "job-1", Seq: 1, State: jobstore.StateRunning, SubmittedAt: 1, StartedAt: 2,
		Sub: jobstore.Submission{Format: jobstore.FormatCNX, Body: chainCNX(rand.New(rand.NewSource(cfg.Seed)), "probe", mixChainTasks)}}
	for name, noSync := range map[string]bool{"jobstore.wal_put_nosync_p50_us": true, "jobstore.wal_put_fsync_p50_us": false} {
		if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
			p.err = err
			return
		}
		dir, err := os.MkdirTemp(cfg.OutDir, "walprobe-")
		if err != nil {
			p.err = err
			return
		}
		wal, err := jobstore.OpenWAL(dir, jobstore.WALOptions{NoSync: noSync})
		if err != nil {
			p.err = err
			return
		}
		p.p50(name, perUS, p.timeOps(1, func() error { return wal.Put(pj) }))
		_ = wal.Close()
		_ = os.RemoveAll(dir)
	}

	// A put and a get of a shuffle-sized blob against a cache holding
	// others: digests cycle so the LRU stays at its steady size.
	cache := archive.NewCache()
	blob := make([]byte, shuffleBlob)
	i := 0
	p.p50("archive.cache_put_get_3mib_p50_us", perUS, p.timeOps(1, func() error {
		i++
		digest := fmt.Sprintf("%064x", i%256)
		cache.PutBlob(digest, blob)
		if _, ok := cache.GetBlob(digest); !ok {
			return fmt.Errorf("blob cache lost %s", digest)
		}
		return nil
	}))

	// An Out and a matching InP against the bag's standing population.
	space := tuplespace.New()
	for n := 0; n < bagItems; n++ {
		if err := space.Out(tuplespace.Tuple{"task", n}); err != nil {
			p.err = err
			return
		}
	}
	p.p50("tuplespace.local_out_inp_pop1024_p50_ns", 1, p.timeOps(64, func() error {
		if err := space.Out(tuplespace.Tuple{"res", 7, 49}); err != nil {
			return err
		}
		_, err := space.InP(tuplespace.Template{"res", tuplespace.TypeOf(0), tuplespace.TypeOf(0)})
		return err
	}))

	// Acknowledged 768 KiB frames on one TCP stream: what one stop-and-wait
	// chunk pull can reach.
	n := transport.NewTCPNetwork()
	defer n.Close()
	var src, dst transport.Endpoint
	var caller *transport.Caller
	dst, err := n.Attach("dst", func(m *msg.Message) { _ = dst.Send(m.From.Node, m.Reply(msg.KindBlobChunkAck, nil)) })
	if err != nil {
		p.err = err
		return
	}
	src, err = n.Attach("src", func(m *msg.Message) { caller.Handle(m) })
	if err != nil {
		p.err = err
		return
	}
	caller = transport.NewCaller(src)
	payload := make([]byte, protocol.BlobChunkBytes)
	s := p.timeOps(1, func() error {
		ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
		defer cancel()
		_, err := caller.Call(ctx, "dst", msg.New(msg.KindBlobChunk, msg.Address{Node: "src"}, msg.Address{Node: "dst"}, payload))
		return err
	})
	p.ms.set("transport.bulk_stream_tcp_mb_per_s", ratio(float64(len(payload))/(1<<20), s.pct(0.5)/1e9), len(s))
}

// live probes an idle cluster on one fabric through the client API and a
// bare endpoint.
func (p *prober) live(st *stack, rng *rand.Rand) {
	fabric := st.cfg.fabric()
	cl, err := st.connect()
	if err != nil {
		p.err = err
		return
	}
	offers := 0
	p.p50("discovery.discover_"+fabric+"_p50_ms", perMS, p.timeOps(1, func() error {
		_, all, err := cl.Discover(protocol.JobRequirements{})
		offers = len(all)
		return err
	}))

	var caller *transport.Caller
	ep, err := st.cluster.Network().Attach("probe-"+fabric, func(m *msg.Message) { caller.Handle(m) })
	if err != nil {
		p.err = err
		return
	}
	defer ep.Close()
	caller = transport.NewCaller(ep)
	p.p50("transport.call_rtt_"+fabric+"_p50_us", perUS, p.timeOps(1, func() error {
		ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
		defer cancel()
		_, err := caller.Call(ctx, "node1", msg.New(msg.KindPing, msg.Address{Node: ep.Node()}, msg.Address{Node: "node1"}, nil))
		return err
	}))
	if !st.cfg.TCP {
		return
	}
	p.ms.set("discovery.offers_per_round", float64(offers), 0)
	p.wakeup(cl)
	p.ship(cl, rng)
}

// walSubmit times the portal's submit with the job store on a write-ahead
// log in the benchmark's output directory: the append and its fsync happen
// under the store lock inside the POST. The figure is this machine's disk;
// no gated number depends on it.
func (p *prober) walSubmit(st *stack, rng *rand.Rand) {
	conn := newPortalConn(st.url)
	defer conn.close()
	sub := submission{Kind: "chain4", Format: "cnx", Tasks: mixChainTasks, Body: chainCNX(rng, "probe", mixChainTasks)}
	var submits samples
	deadline := time.Now().Add(p.slice)
	for i := 0; i < probeMinIters || time.Now().Before(deadline); i++ {
		r := portalJob(conn, sub, pollEvery, false)
		if !r.OK {
			p.err = fmt.Errorf("job on the WAL-backed portal: %s", r.Err)
			return
		}
		submits = append(submits, float64(r.Spans[0].Dur))
	}
	p.p50("portal.submit_wal_p50_ms", perMS, submits.sorted())
}

// wakeup times a parked In: from the Out that satisfies it to its return.
func (p *prober) wakeup(cl *api.Client) {
	job, err := cl.CreateJob("probe-wakeup", protocol.JobRequirements{})
	if err != nil {
		p.err = err
		return
	}
	defer func() { _ = job.Cancel("probe done") }()
	space := job.Space()
	i := 0
	var out samples
	deadline := time.Now().Add(p.slice)
	for i < probeMinIters || time.Now().Before(deadline) {
		i++
		woke := make(chan time.Time, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
			defer cancel()
			if _, err := space.In(ctx, tuplespace.Template{"wake", i}); err != nil {
				woke <- time.Time{}
				return
			}
			woke <- time.Now()
		}()
		time.Sleep(time.Millisecond) // let the In reach the manager and park
		start := time.Now()
		if err := space.Out(tuplespace.Tuple{"wake", i}); err != nil {
			p.err = err
			return
		}
		at := <-woke
		if at.IsZero() {
			p.err = fmt.Errorf("parked In %d failed", i)
			return
		}
		out = append(out, float64(at.Sub(start)))
	}
	p.p50("tuplespace.blocked_in_wakeup_p50_us", perUS, out.sorted())
}

const (
	shipBytes = 8 << 20
	shipReps  = 3
)

// ship times CreateTasks for a job whose 8 MiB archive no node has seen:
// the client's chunked push plus one pull per chosen node. No end-to-end
// workload ships archives yet, so this row stands alone.
func (p *prober) ship(cl *api.Client, rng *rand.Rand) {
	var out samples
	for rep := 0; rep < shipReps; rep++ {
		content := make([]byte, shipBytes)
		rng.Read(content)
		ar, err := archive.NewBuilder(fmt.Sprintf("ship%d.jar", rep), noopClass).AddFile("payload.bin", content).Build()
		if err != nil {
			p.err = err
			return
		}
		specs := noopSpecs(rng, clusterNodes)
		for _, sp := range specs {
			sp.Archive = ar.Name
		}
		job, err := cl.CreateJob("probe-ship", protocol.JobRequirements{})
		if err != nil {
			p.err = err
			return
		}
		start := time.Now()
		_, err = job.CreateTasks(specs, map[string]*archive.Archive{ar.Name: ar})
		took := time.Since(start)
		_ = job.Cancel("probe done")
		if err != nil {
			p.err = err
			return
		}
		out = append(out, float64(shipBytes)/(1<<20)/took.Seconds())
	}
	p.ms.set("archive.ship_8mib_mb_per_s", out.median(), len(out))
}
