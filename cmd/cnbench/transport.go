// Experiment T-M: the pipelined transport.
//
// Coalescing section: S concurrent streams blast small frames at one
// destination over the TCP fabric; the writer drains the shared
// per-connection queue in writev batches, so the syscall cost per frame
// (writes-per-frame = flushes/sent) falls as concurrency rises.
//
// Priority section: heartbeat probes cross the same connection as two
// dozen saturating 256 KiB blob streams; the control lane overtakes the
// queued bulk, so the lease renewal's tail latency survives the storm.
// Results are printed and snapshotted to BENCH_transport.json.
//
// The serialized send path this was measured against (one mutex across the
// write syscall; heartbeat p99 4.23 ms vs 0.64 ms) is deleted. Its rows
// stay in the committed BENCH_transport.json, which this experiment no
// longer regenerates in full, and its code in git history up to PR 13.

package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cn/internal/msg"
	"cn/internal/transport"
)

// transportCoalesceRow is one stream-count configuration's measurement.
type transportCoalesceRow struct {
	Streams        int     `json:"streams"`
	Frames         int     `json:"frames"`
	FramesPerSec   float64 `json:"frames_per_sec"`
	WritesPerFrame float64 `json:"writes_per_frame"`
}

// transportHeartbeatRow is the heartbeat latency under the blob storm.
type transportHeartbeatRow struct {
	Mode   string  `json:"mode"` // always "pipelined"; the committed snapshot also has a "serialized" row
	Probes int     `json:"probes"`
	P50MS  float64 `json:"heartbeat_p50_ms"`
	P99MS  float64 `json:"heartbeat_p99_ms"`
}

// transportSnapshot is the BENCH_transport.json document.
type transportSnapshot struct {
	Experiment       string                  `json:"experiment"`
	GeneratedAt      time.Time               `json:"generated_at"`
	Coalescing       []transportCoalesceRow  `json:"coalescing"`
	Heartbeat        []transportHeartbeatRow `json:"heartbeat_under_storm"`
	WritesPerFrame16 float64                 `json:"writes_per_frame_16_streams"`
}

// transportCoalesceRun measures one stream count on a fresh fabric.
func transportCoalesceRun(streams, perStream int) transportCoalesceRow {
	n := transport.NewTCPNetwork()
	defer n.Close()
	var got atomic.Int64
	src, err := n.Attach("src", func(*msg.Message) {})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := n.Attach("dst", func(*msg.Message) { got.Add(1) }); err != nil {
		log.Fatal(err)
	}
	total := streams * perStream
	payload := make([]byte, 256)
	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perStream; i++ {
				// Bulk-lane frames: a full queue paces the senders through
				// backpressure instead of shedding load, so delivery is total
				// and throughput is honest.
				if err := src.Send("dst", msg.New(msg.KindUser, msg.Address{Node: "src"}, msg.Address{Node: "dst"}, payload)); err != nil {
					log.Fatalf("coalesce send: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(60 * time.Second)
	for got.Load() < int64(total) {
		if time.Now().After(deadline) {
			log.Fatalf("coalesce run stalled: %d of %d frames delivered", got.Load(), total)
		}
		time.Sleep(time.Millisecond)
	}
	elapsed := time.Since(start)
	sent, flushes := n.Stats().Sent.Load(), n.Stats().Flushes.Load()
	return transportCoalesceRow{
		Streams:        streams,
		Frames:         total,
		FramesPerSec:   float64(total) / elapsed.Seconds(),
		WritesPerFrame: float64(flushes) / float64(sent),
	}
}

// transportHeartbeatRun measures heartbeat latency while two dozen
// goroutines keep 256 KiB blob chunks flowing to the same destination.
// Each probe carries its send timestamp; the receiver's handler clocks the
// one-way delay.
func transportHeartbeatRun(probes int, interval time.Duration) transportHeartbeatRow {
	n := transport.NewTCPNetwork()
	// A bounded send buffer: bytes already in the kernel drain in order
	// regardless of lanes, so an unbounded SO_SNDBUF would bury the
	// heartbeat under megabytes of absorbed bulk and measure bufferbloat,
	// not the send path.
	n.SetSendBuffer(64 << 10)
	defer n.Close()

	var mu sync.Mutex
	var lats []time.Duration
	if _, err := n.Attach("jm", func(m *msg.Message) {
		if m.Kind == msg.KindHeartbeat && len(m.Payload) == 8 {
			sentAt := time.Unix(0, int64(binary.BigEndian.Uint64(m.Payload)))
			mu.Lock()
			lats = append(lats, time.Since(sentAt))
			mu.Unlock()
		}
	}); err != nil {
		log.Fatal(err)
	}
	tm, err := n.Attach("tm", func(*msg.Message) {})
	if err != nil {
		log.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	chunk := make([]byte, 256<<10)
	for w := 0; w < 24; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Backpressure (bulk lane full) is expected under saturation;
				// the storm just keeps pushing.
				_ = tm.Send("jm", msg.New(msg.KindBlobChunk, msg.Address{Node: "tm"}, msg.Address{Node: "jm"}, chunk))
			}
		}()
	}
	time.Sleep(100 * time.Millisecond) // let the storm reach saturation

	for i := 0; i < probes; i++ {
		ts := make([]byte, 8)
		binary.BigEndian.PutUint64(ts, uint64(time.Now().UnixNano()))
		if err := tm.Send("jm", msg.New(msg.KindHeartbeat, msg.Address{Node: "tm"}, msg.Address{Node: "jm"}, ts)); err != nil {
			log.Fatalf("heartbeat probe: %v", err)
		}
		time.Sleep(interval)
	}
	// Collect stragglers still crossing the congested connection.
	deadline := time.Now().Add(15 * time.Second)
	for {
		mu.Lock()
		have := len(lats)
		mu.Unlock()
		if have >= probes || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(lats) < probes*9/10 {
		log.Fatalf("only %d of %d heartbeat probes arrived", len(lats), probes)
	}
	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	q := func(p float64) float64 {
		idx := int(p * float64(len(lats)-1))
		return float64(lats[idx]) / float64(time.Millisecond)
	}
	return transportHeartbeatRow{Mode: "pipelined", Probes: len(lats), P50MS: q(0.5), P99MS: q(0.99)}
}

// transportTable is experiment T-M: frame coalescing throughput and the
// control lane's heartbeat tail under a bulk storm.
func transportTable(reps int, outPath string) {
	header("T-M  Pipelined transport: writev coalescing + control-lane priority under bulk storm")
	snap := transportSnapshot{Experiment: "T-M transport pipelining", GeneratedAt: time.Now().UTC()}

	perStream := 500 * reps
	fmt.Printf("%-10s %10s %14s %18s\n", "streams", "frames", "frames/sec", "writes/frame")
	for _, s := range []int{1, 4, 16} {
		row := transportCoalesceRun(s, perStream)
		snap.Coalescing = append(snap.Coalescing, row)
		if s == 16 {
			snap.WritesPerFrame16 = row.WritesPerFrame
		}
		fmt.Printf("%-10d %10d %14.0f %18.3f\n", row.Streams, row.Frames, row.FramesPerSec, row.WritesPerFrame)
	}

	row := transportHeartbeatRun(100*reps, 3*time.Millisecond)
	snap.Heartbeat = append(snap.Heartbeat, row)
	fmt.Printf("\n%8s %16s %16s\n", "probes", "heartbeat p50", "heartbeat p99")
	fmt.Printf("%8d %14.3fms %14.3fms\n", row.Probes, row.P50MS, row.P99MS)
	fmt.Printf("\nwrites/frame at 16 streams: %.3f\n", snap.WritesPerFrame16)

	raw, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(outPath, append(raw, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("snapshot written to %s\n", outPath)
}
