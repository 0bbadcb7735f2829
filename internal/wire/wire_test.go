package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"
	"time"

	"cn/internal/metrics"
	"cn/internal/msg"
	"cn/internal/protocol"
	"cn/internal/task"
	"cn/internal/trace"
	"cn/internal/tuplespace"
)

// specFixture builds a representative task spec exercising every field.
func specFixture(name string) *task.Spec {
	return &task.Spec{
		Name:      name,
		Archive:   "tctask.jar",
		Class:     "org.jhpc.cn2.trnsclsrtask.TCTask",
		DependsOn: []string{"a", "b"},
		Params: []task.Param{
			{Type: task.TypeInteger, Value: "42"},
			{Type: task.TypeString, Value: "hello"},
		},
		Req: task.Requirements{MemoryMB: 1000, RunModel: task.RunAsProcess},
	}
}

// bodies is the exhaustive round-trip corpus: one representative value per
// protocol body type the binary codec handles. Adding a protocol body
// without extending this table fails TestEveryBodyCovered.
func bodies() []any {
	return []any{
		&protocol.JobRequirements{MinMemoryMB: 512, ExpectedTasks: 32},
		&protocol.JMOffer{Node: "n1", FreeMemoryMB: 8000, ActiveJobs: 3},
		&protocol.TaskSolicitReq{JobID: "j", Spec: specFixture("probe")},
		&protocol.TMOffer{Node: "n3", FreeMemoryMB: 4000, RunningTasks: 2, Seq: 7,
			ResidentDigests: []string{"d1", "d2"}, StalledTasks: 1},
		&protocol.CreateTasksReq{
			JobID: "j",
			Tasks: []protocol.TaskCreate{
				{Spec: specFixture("t1"), Archive: protocol.ArchiveRef{Name: "a.jar", Digest: "d1", Size: 4}},
				{Spec: specFixture("t2")},
			},
			Blobs:      map[string][]byte{"d1": {1, 2, 3, 4}},
			ClientNode: "client-1",
			Name:       "job",
			Req:        protocol.JobRequirements{MinMemoryMB: 1},
			Start:      true,
			Spans: []trace.Span{
				{Trace: 11, ID: 11, Name: "client.submit", Node: "client", Job: "j",
					Start: time.Unix(0, 1_700_000_000_000_000_000), Dur: 42 * time.Millisecond},
			},
		},
		&protocol.CreateTasksResp{Placements: map[string]string{"t1": "n1", "t2": "n2"}},
		&protocol.AssignTasksReq{JobID: "j", JobManager: "n1", ClientNode: "c",
			Items: []protocol.TaskCreate{{Spec: specFixture("t3"), Archive: protocol.ArchiveRef{Name: "x", Digest: "y", Size: 3 << 20}}},
			Run:   []string{"t3"}},
		&protocol.AssignTasksResp{Rejected: map[string]string{"t3": "no memory"}, Fetched: 2,
			Capacity: protocol.Capacity{Seq: 8, FreeMemoryMB: 3000, RunningTasks: 3}},
		&protocol.BlobChunkReq{JobID: "j", Digest: "d", Offset: 131072, MaxBytes: 65536, Total: 1 << 21, Data: []byte("chunk")},
		&protocol.BlobChunkResp{Digest: "d", Offset: 131072, Total: 1 << 21, Data: []byte("chunk"), Err: ""},
		&protocol.ExecTaskReq{JobID: "j", Tasks: []string{"t1", "t2"}},
		&protocol.Heartbeat{Node: "n1", Seq: 17, Beats: []protocol.TaskBeat{
			{JobID: "j", Task: "t1", Running: true, Progress: 99},
			{JobID: "j", Task: "t2", Running: false, Progress: 0},
		}},
		&protocol.HeartbeatAck{Node: "n1", Seq: 17, UnknownJobs: []string{"gone"}},
		&protocol.UserPayload{JobID: "j", FromTask: "t1", ToTask: "client", Data: []byte("payload")},
		&protocol.CancelJobReq{JobID: "j", Reason: "test", Tasks: []string{"t1", "t2"}},
		&protocol.JobEvent{JobID: "j", Failed: true, Err: "x", TaskErrs: map[string]string{"t1": "boom"}},
		&protocol.TSOpReq{ParkMS: 1000, NoReply: true, Tuple: tuplespace.Tuple{
			"work", 7, int64(-3), 3.25, true, []byte{1, 2}, tuplespace.Wildcard, tuplespace.TypeOf(0),
		}},
		&protocol.TSCancelReq{JobID: "j", ReqID: 12345},
		&protocol.TSOpResp{OK: true, Tuple: tuplespace.Tuple{int64(-9)}},
		&protocol.DataPutReq{JobID: "j", Key: "wc/chunk/map1", Task: "split", Node: "n1",
			Digest: "abc123", Size: 1 << 20, Data: []byte("inline")},
		&protocol.DataResolveReq{JobID: "j", Key: "wc/chunk/map1", Task: "map1", ParkMS: 1000,
			StaleNode: "n9", StaleDigest: "dead"},
		&protocol.DataLocResp{Key: "wc/chunk/map1", Digest: "abc123", Node: "n1", Size: 1 << 20,
			Data: []byte{7, 8, 9}, Retry: true, Closed: true, Err: "boom"},
		&protocol.StatsPullReq{Scraper: "portal"},
		&protocol.StatsReportResp{Node: "n1", Metrics: metrics.RegistrySnapshot{
			Counters: map[string]int64{"jobs_created": 4, "tasks_done": 9},
			Gauges:   map[string]int64{"free_memory_mb": 4000},
			Histograms: map[string]metrics.Summary{
				"admission_ms": {Count: 12, Mean: 1.5, Min: 0.5, Max: 4, P50: 1.25, P90: 3, P99: 3.9},
			},
		}},
		&protocol.JMCheckpoint{Origin: "n1", JobID: "n1-job7", Seq: 4, Done: true, Data: []byte("image")},
		&protocol.JMAdoptReq{JobID: "n1-job7", NewManager: "n2", ClientNode: "client-1", Tasks: []string{"t1", "t2"}},
		&protocol.JMAdoptResp{Node: "n3", Present: []protocol.TaskBeat{{JobID: "n1-job7", Task: "t1", Running: true, Progress: 5}}},
		&protocol.TaskEvents{JobID: "j", Node: "n1", Events: []protocol.TaskEventItem{
			{Kind: msg.KindTaskStarted, Task: "t1"},
			{Kind: msg.KindTaskFailed, Task: "t1", Err: "boom", Attempt: 2, Spans: []trace.Span{
				{Trace: 11, ID: 12, Parent: 11, Name: "tm.exec", Node: "n1", Job: "j", Task: "t1",
					Start: time.Unix(0, 1_700_000_000_100_000_000), Dur: time.Second, Err: "boom"},
			}},
			{Kind: msg.KindTaskCompleted, Task: "t2"},
			{Kind: msg.KindTaskRetried, Task: "t1", Err: "node n2 died", Attempt: 3, Speculative: true},
			{Kind: msg.KindJobFailed, Err: "one or more tasks failed", TaskErrs: map[string]string{"t1": "boom"}},
		}, Capacity: protocol.Capacity{Seq: 9, FreeMemoryMB: 8000}},
	}
}

// throughFrame sends body the way production does — protocol.Body, a
// contiguous frame, DecodeFrameBody, protocol.Decode — and returns the
// payload bytes and the decoded copy. It is the round trip that holds for
// every body: the chunk bodies' Data travels in the frame's tail, which a
// bare Marshal/Unmarshal never sees.
func throughFrame(t *testing.T, body any) (payload []byte, out any) {
	t.Helper()
	m := protocol.Body(msg.KindUser, msg.Address{Node: "a"}, msg.Address{Node: "b"}, body)
	frame, err := AppendFrame(nil, m)
	if err != nil {
		t.Fatalf("%T: AppendFrame: %v", body, err)
	}
	got, err := DecodeFrameBody(frame[FrameHeaderBytes:])
	if err != nil {
		t.Fatalf("%T: DecodeFrameBody: %v", body, err)
	}
	out = reflect.New(reflect.TypeOf(body).Elem()).Interface()
	if err := protocol.Decode(got, out); err != nil {
		t.Fatalf("%T: Decode: %v", body, err)
	}
	return m.Payload, out
}

// TestRoundTripAllBodies encodes and decodes every protocol body and
// requires deep equality.
func TestRoundTripAllBodies(t *testing.T) {
	for _, v := range bodies() {
		name := reflect.TypeOf(v).Elem().Name()
		t.Run(name, func(t *testing.T) {
			_, out := throughFrame(t, v)
			if !reflect.DeepEqual(v, out) {
				t.Errorf("round trip mismatch:\n in: %+v\nout: %+v", v, out)
			}
		})
	}
}

// TestChunkDataRidesTheTail: the two chunk bodies put Data in the frame's
// tail by reference — not in the payload, and not copied.
func TestChunkDataRidesTheTail(t *testing.T) {
	data := []byte("chunk bytes")
	for _, body := range []any{
		protocol.BlobChunkReq{JobID: "j", Digest: "d", Total: 11, Data: data},
		&protocol.BlobChunkResp{Digest: "d", Total: 11, Data: data},
	} {
		m := protocol.Body(msg.KindBlobChunk, msg.Address{Node: "a"}, msg.Address{Node: "b"}, body)
		if len(m.Tail) != len(data) || &m.Tail[0] != &data[0] {
			t.Errorf("%T: tail is not the body's Data slice", body)
		}
		if bytes.Contains(m.Payload, data) {
			t.Errorf("%T: payload still carries Data", body)
		}
		r := protocol.Reply(m, msg.KindBlobChunkAck, body)
		if len(r.Tail) != len(data) || &r.Tail[0] != &data[0] || r.CorrelID != m.ID {
			t.Errorf("%T: Reply lost the tail or the correlation", body)
		}
	}
}

// TestRoundTripByValue checks the value (non-pointer) marshal path used by
// protocol.Body call sites.
func TestRoundTripByValue(t *testing.T) {
	in := protocol.TMOffer{Node: "n9", FreeMemoryMB: 123, RunningTasks: 4, Seq: 300,
		ResidentDigests: []string{"abc"}, StalledTasks: 2}
	enc := Marshal(in)
	var out protocol.TMOffer
	if err := Unmarshal(enc, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Errorf("got %+v want %+v", out, in)
	}
}

// TestOnlyCurrentVersionAccepted: one wire version, at the frame and at the
// payload — the previous one, the next one and zero are all refused, with
// the tail flag or without.
func TestOnlyCurrentVersionAccepted(t *testing.T) {
	m := msg.New(msg.KindPong, msg.Address{Node: "a"}, msg.Address{Node: "b"}, nil)
	env := AppendMessage(nil, m)
	payload := Marshal(&protocol.TMOffer{Node: "n4"})
	for _, v := range []byte{0, Version - 1, Version + 1, (Version - 1) | TailFlag, 0x7f} {
		if _, err := DecodeFrameBody(append([]byte{Magic0, Magic1, v}, env...)); err == nil {
			t.Errorf("frame version %#x accepted", v)
		}
		stamped := append([]byte(nil), payload...)
		stamped[0] = v
		if err := Unmarshal(stamped, new(protocol.TMOffer)); err == nil {
			t.Errorf("payload version %#x accepted", v)
		}
	}
	if _, err := DecodeFrameBody(append([]byte{Magic0, Magic1, Version}, env...)); err != nil {
		t.Errorf("current version refused: %v", err)
	}
}

// TestEveryBodyCovered walks the corpus through protocol.Body /
// protocol.Decode (the production entry points), each payload starting with
// the version byte, and asserts that the corpus has an entry for every row
// of the codec table.
func TestEveryBodyCovered(t *testing.T) {
	// Each body type registers a value form and a pointer form.
	if len(forms) != 2*len(bodies()) {
		t.Errorf("codec table has %d forms for a corpus of %d bodies; extend bodies() with the new type", len(forms), len(bodies()))
	}
	for _, v := range bodies() {
		enc, out := throughFrame(t, v)
		if enc[0] != Version {
			t.Errorf("%T: payload starts %#x, not the version", v, enc[0])
			continue
		}
		if !reflect.DeepEqual(v, out) {
			t.Errorf("%T mismatch through msg seam", v)
		}
	}
}

// TestUnmarshalTypeMismatch: decoding into the wrong body type must error,
// not mis-parse.
func TestUnmarshalTypeMismatch(t *testing.T) {
	enc := Marshal(&protocol.JMOffer{Node: "n1"})
	var wrong protocol.TMOffer
	if err := Unmarshal(enc, &wrong); err == nil {
		t.Error("decoding JMOffer bytes into TMOffer succeeded")
	}
}

// TestMarshalPanicsWithoutARow: a type with no row in the codec table is a
// programming error, and Marshal says so instead of encoding something.
func TestMarshalPanicsWithoutARow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Marshal of a struct{} did not panic")
		}
	}()
	Marshal(struct{}{})
}

// TestMessageRoundTrip covers the envelope framing.
func TestMessageRoundTrip(t *testing.T) {
	m := msg.New(msg.KindHeartbeat,
		msg.Address{Node: "n1"},
		msg.Address{Node: "n2", Job: "j", Task: "t"},
		Marshal(protocol.Heartbeat{Node: "n1", Seq: 3}))
	m.CorrelID = 77
	m.SetHeader("k", "v")

	frame, err := AppendFrame(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	body := frame[FrameHeaderBytes:]
	got, err := DecodeFrameBody(body)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Errorf("envelope mismatch:\n in: %+v\nout: %+v", m, got)
	}
	if EncodedSize(m) != len(body) {
		t.Errorf("EncodedSize = %d, frame body is %d", EncodedSize(m), len(body))
	}
	if SizeOf(m) != len(body) {
		t.Errorf("SizeOf = %d, frame body is %d", SizeOf(m), len(body))
	}

	// The same message with a bulk tail: the contiguous frame is the head
	// the transport sends followed by the tail, the tail decodes as an
	// alias of the frame, and the tail-less frame above did not grow.
	plain := len(body)
	m.Tail = []byte("bulk bytes that are never copied into the envelope")
	head, err := AppendFrameHead(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	if frame, err = AppendFrame(nil, m); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame, append(head, m.Tail...)) {
		t.Error("AppendFrame is not AppendFrameHead followed by the tail")
	}
	body = frame[FrameHeaderBytes:]
	if want := plain + 4 + len(m.Tail); len(body) != want || SizeOf(m) != want || EncodedSize(m) != want {
		t.Errorf("tailed body is %d bytes, SizeOf %d, EncodedSize %d; want %d", len(body), SizeOf(m), EncodedSize(m), want)
	}
	if got, err = DecodeFrameBody(body); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Errorf("tailed envelope mismatch:\n in: %+v\nout: %+v", m, got)
	}
	if &got.Tail[0] != &body[len(body)-len(m.Tail)] {
		t.Error("decoded tail does not alias the frame")
	}
}

// TestSizeOfMatchesEncoding: the arithmetic size must agree with the real
// encoding for a spread of messages (headers, empty fields, big payloads).
func TestSizeOfMatchesEncoding(t *testing.T) {
	msgs := []*msg.Message{
		{ID: 1, Kind: msg.KindPing},
		msg.New(msg.KindUser, msg.Address{Node: "a", Job: "j", Task: "t"}, msg.Address{Node: "b"}, make([]byte, 200_000)),
		msg.New(msg.KindTSOut, msg.Address{Node: "x"}, msg.Address{}, nil).SetHeader("cn-routed", "1").SetHeader("k2", "v2"),
	}
	for i, m := range msgs {
		if got, want := SizeOf(m), EncodedSize(m); got != want {
			t.Errorf("message %d: SizeOf = %d, EncodedSize = %d", i, got, want)
		}
	}
}

// TestEnvelopeCarriesNoTimestamp: since version 8 the envelope is id, kind,
// correlation, the two addresses, headers and payload — no send time — so
// the smallest message is a frame body of eleven bytes.
func TestEnvelopeCarriesNoTimestamp(t *testing.T) {
	m := &msg.Message{ID: 1, Kind: msg.KindPing}
	frame, err := AppendFrame(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{Magic0, Magic1, Version, 1, byte(msg.KindPing), 0, 0, 0, 0, 0, 0, 0, 0, 0}
	if body := frame[FrameHeaderBytes:]; !bytes.Equal(body, want) {
		t.Errorf("frame body %x, want %x", body, want)
	}
}

// TestLegacyFieldsEncodeAsTheirTuple: a request that still spells its tuple
// as TSFields goes on the wire in the very bytes of the tuple it spells, and
// decodes as that tuple.
func TestLegacyFieldsEncodeAsTheirTuple(t *testing.T) {
	legacy := &protocol.TSOpReq{JobID: "node1-job1", FromTask: "w1", ParkMS: 5,
		Fields: []protocol.TSField{{Kind: protocol.TSString, S: "res"}, {Kind: protocol.TSInt, I: 7}, {Kind: protocol.TSTypeOf, S: "int"}}}
	tuple := &protocol.TSOpReq{ParkMS: 5, Tuple: tuplespace.Tuple{"res", 7, tuplespace.TypeOf(0)}}
	a := Marshal(legacy)
	b := Marshal(tuple)
	if !bytes.Equal(a, b) {
		t.Fatalf("legacy fields encode as %x, their tuple as %x", a, b)
	}
	var got protocol.TSOpReq
	if err := Unmarshal(a, &got); err != nil || !reflect.DeepEqual(&got, tuple) {
		t.Errorf("legacy request decodes as %+v (%v), want %+v", got, err, tuple)
	}
}

// TestFrameTooLarge: a message over MaxFrameBytes must fail at the sender
// without emitting anything.
func TestFrameTooLarge(t *testing.T) {
	m := msg.New(msg.KindUser, msg.Address{}, msg.Address{}, make([]byte, MaxFrameBytes+1))
	out, err := AppendFrame([]byte("prefix"), m)
	if err == nil {
		t.Fatal("oversized frame encoded")
	}
	if string(out) != "prefix" {
		t.Errorf("dst not truncated back on failure: %d bytes", len(out))
	}
	// The limit is on head + tail: a tail that alone fits, behind a head
	// that alone fits, is refused by both encoders once the sum is over.
	m = msg.New(msg.KindBlobChunkAck, msg.Address{}, msg.Address{}, make([]byte, 1024))
	m.Tail = make([]byte, MaxFrameBytes-512)
	for name, enc := range map[string]func([]byte, *msg.Message) ([]byte, error){"AppendFrame": AppendFrame, "AppendFrameHead": AppendFrameHead} {
		out, err := enc([]byte("prefix"), m)
		if !errors.Is(err, ErrFrameTooLarge) || string(out) != "prefix" {
			t.Errorf("%s: head+tail over the limit: err %v, %d bytes left in dst", name, err, len(out))
		}
	}
	// Exactly at the limit is legal.
	m.Tail = m.Tail[:MaxFrameBytes-(SizeOf(m)-len(m.Tail))]
	if frame, err := AppendFrame(nil, m); err != nil || len(frame) != FrameHeaderBytes+MaxFrameBytes {
		t.Errorf("frame of exactly MaxFrameBytes: err %v, %d bytes", err, len(frame))
	}
}

// TestCheckFrameLen guards the inbound allocation path.
func TestCheckFrameLen(t *testing.T) {
	if err := CheckFrameLen(0); err == nil {
		t.Error("zero-length frame accepted")
	}
	if err := CheckFrameLen(MaxFrameBytes + 1); err == nil {
		t.Error("oversized frame accepted")
	}
	if err := CheckFrameLen(1024); err != nil {
		t.Errorf("valid length rejected: %v", err)
	}
}

// readSizes records the length of every buffer the FrameReader's bufio
// layer hands the stream.
type readSizes struct {
	r     io.Reader
	sizes []int
}

func (r *readSizes) Read(p []byte) (int, error) {
	r.sizes = append(r.sizes, len(p))
	return r.r.Read(p)
}

// TestFrameReaderBufferIsForHeads: the read buffer is sized for small
// frames — a burst of them arrives in one read — and a frame larger than
// the buffer does not trickle through it: once the buffered start has been
// copied out, the rest of a 768 KiB tail-less frame (a JM_CHECKPOINT) is
// read straight into the frame's own allocation.
func TestFrameReaderBufferIsForHeads(t *testing.T) {
	small := msg.New(msg.KindTSOut, msg.Address{Node: "a"}, msg.Address{Node: "b"}, []byte("tuple"))
	big := msg.New(msg.KindJMCheckpoint, msg.Address{Node: "a"}, msg.Address{Node: "b"}, bytes.Repeat([]byte{0xC5}, 768<<10))
	var stream []byte
	var err error
	for _, m := range []*msg.Message{small, small, big, small} {
		if stream, err = AppendFrame(stream, m); err != nil {
			t.Fatal(err)
		}
	}
	src := &readSizes{r: bytes.NewReader(stream)}
	fr := NewFrameReader(src, nil)
	for i, want := range []*msg.Message{small, small, big, small} {
		got, _, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Kind != want.Kind || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d: got %v with %d payload bytes, want %v with %d", i, got.Kind, len(got.Payload), want.Kind, len(want.Payload))
		}
	}
	if _, _, err := fr.Next(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
	direct := 0
	for _, n := range src.sizes {
		switch {
		case n == readBufBytes:
		case n > readBufBytes:
			direct++
			if n < len(big.Payload)-readBufBytes {
				t.Errorf("a %d-byte read for the big frame: it is being read in pieces", n)
			}
		default:
			t.Errorf("a %d-byte read, smaller than the %d-byte buffer", n, readBufBytes)
		}
	}
	if direct != 1 {
		t.Errorf("%d reads bypassed the buffer, want 1 (the big frame's body); reads: %v", direct, src.sizes)
	}
}

// TestArchiveRefSizeRidesOnlyADigest: a ref with a digest round-trips its
// Size; one without encodes as at wire version 6 — two strings, no size —
// and a Size set on it does not travel.
func TestArchiveRefSizeRidesOnlyADigest(t *testing.T) {
	for _, ref := range []protocol.ArchiveRef{
		{Name: "a.jar", Digest: "d1", Size: 9 << 20},
		{Name: "a.jar", Digest: "d1"},
		{Name: "predeployed.jar"},
		{},
	} {
		enc := AppendArchiveRef(nil, ref)
		r := NewReader(enc)
		got, err := ReadArchiveRef(r)
		if err != nil || r.Len() != 0 || got != ref {
			t.Errorf("%+v: round trip gave %+v, %d bytes left, err %v", ref, got, r.Len(), err)
		}
		if ref.Digest == "" {
			if want := AppendString(AppendString(nil, ref.Name), ""); !bytes.Equal(enc, want) {
				t.Errorf("%+v: encodes to %x, want the two strings %x", ref, enc, want)
			}
			ref.Size = 77
			if !bytes.Equal(AppendArchiveRef(nil, ref), enc) {
				t.Errorf("%+v: a size without a digest changed the encoding", ref)
			}
		}
	}
}

// assign32Bytes is the encoded length of the archive-less 32-item
// AssignTasksReq below: 668 bytes at wire version 6, measured at the commit
// before ArchiveRef got its Size, less the payload tag byte version 9
// dropped, plus the one byte of the empty run list version 13 added. It is
// the shape bench/ probes as wire.assign32_bytes: the common
// assignment pays nothing for a field only an archive needs.
const assign32Bytes = 668

func TestArchivelessAssignKeepsItsLength(t *testing.T) {
	items := make([]protocol.TaskCreate, 32)
	for i := range items {
		items[i].Spec = &task.Spec{Name: fmt.Sprintf("t%02d", i), Class: "cn.Noop",
			Req: task.Requirements{MemoryMB: 8 + i%8}}
	}
	enc := Marshal(protocol.AssignTasksReq{JobID: "node1-job1", JobManager: "node1", ClientNode: "portal", Items: items})
	if len(enc) != assign32Bytes {
		t.Errorf("archive-less 32-item AssignTasksReq encodes to %d bytes, want %d", len(enc), assign32Bytes)
	}
}
