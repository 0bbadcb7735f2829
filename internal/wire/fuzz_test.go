package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"
	"time"

	"cn/internal/msg"
	"cn/internal/protocol"
	"cn/internal/trace"
	"cn/internal/tuplespace"
)

// FuzzDecodeFrameBody: arbitrary bytes must produce an error or a valid
// message — never a panic, and never an allocation driven by a corrupted
// length field (the decoder only ever slices its input).
func FuzzDecodeFrameBody(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{Magic0, Magic1, Version})
	f.Add([]byte{Magic0, Magic1, Version, 0xff, 0xff, 0xff, 0xff, 0xff})
	ping := msg.New(msg.KindPing, msg.Address{Node: "a"}, msg.Address{Node: "b"}, []byte("x"))
	if frame, err := AppendFrame(nil, ping); err == nil {
		f.Add(frame[FrameHeaderBytes:])
	}
	ping.Tail = []byte("tail")
	if frame, err := AppendFrame(nil, ping); err == nil {
		f.Add(frame[FrameHeaderBytes:])
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeFrameBody(b)
		if err == nil && m == nil {
			t.Error("nil message with nil error")
		}
	})
}

// hostileTailStreams are the streams the tail's length word makes
// possible and the reader must refuse: each names what is wrong with it.
func hostileTailStreams() map[string][]byte {
	tailed := func(frameLen, tailLen uint32, rest ...byte) []byte {
		b := binary.BigEndian.AppendUint32(nil, frameLen)
		b = append(b, Magic0, Magic1, Version|TailFlag)
		b = binary.BigEndian.AppendUint32(b, tailLen)
		return append(b, rest...)
	}
	env := AppendMessage(nil, &msg.Message{ID: 1, Kind: msg.KindBlobChunkAck, CorrelID: 9})
	n := uint32(frameBodyMin + tailLenBytes + len(env))
	return map[string][]byte{
		"tail longer than the frame":          tailed(n+8, n+9, env...),
		"tail as long as the frame":           tailed(n+8, n+8, env...),
		"tail length past MaxFrameBytes":      tailed(n+8, MaxFrameBytes+1, env...),
		"tail length of all ones":             tailed(n+8, 0xffffffff, env...),
		"empty tail":                          tailed(n, 0, env...),
		"frame ends inside the tail length":   tailed(frameBodyMin+2, 0),
		"tail swallows the envelope":          tailed(n+8, uint32(len(env))+8, env...),
		"MaxFrameBytes frame, oversized tail": tailed(MaxFrameBytes, MaxFrameBytes-frameBodyMin-tailLenBytes+1, env...),
		"frame one past MaxFrameBytes":        tailed(MaxFrameBytes+1, 8, env...),
	}
}

// TestFrameReaderRefusesHostileTails: a tail length that does not fit its
// frame is a frame error — the kind that drops the connection — raised
// before the reader asks for, or allocates, a tail buffer.
func TestFrameReaderRefusesHostileTails(t *testing.T) {
	for name, stream := range hostileTailStreams() {
		posted := false
		fr := NewFrameReader(bytes.NewReader(stream), func(*msg.Message, int) []byte { posted = true; return nil })
		m, _, err := fr.Next()
		var bad *FrameError
		if m != nil || !errors.As(err, &bad) {
			t.Errorf("%s: got message %v, err %v; want a FrameError", name, m, err)
		}
		if posted {
			t.Errorf("%s: the reader asked for a tail buffer", name)
		}
		if _, err := DecodeFrameBody(stream[FrameHeaderBytes:]); err == nil {
			t.Errorf("%s: DecodeFrameBody accepted the same bytes", name)
		}
	}
	// A tail length with no tail bytes behind it is a torn stream, not a
	// frame error — and the one buffer allocated for it stays within
	// MaxFrameBytes even when the frame claims every byte of the limit.
	chunk := &msg.Message{ID: 1, Kind: msg.KindBlobChunkAck, CorrelID: 9, Tail: make([]byte, MaxFrameBytes-64)}
	head, err := AppendFrameHead(nil, chunk)
	if err != nil {
		t.Fatal(err)
	}
	asked := 0
	fr := NewFrameReader(bytes.NewReader(head), func(_ *msg.Message, n int) []byte { asked = n; return nil })
	if _, _, err := fr.Next(); err != io.ErrUnexpectedEOF {
		t.Errorf("head without its tail: err %v, want io.ErrUnexpectedEOF", err)
	}
	if asked != len(chunk.Tail) || asked > MaxFrameBytes {
		t.Errorf("reader asked for a %d-byte tail buffer, want %d", asked, len(chunk.Tail))
	}
}

// FuzzFrameTail: whatever arrives on the stream — a hostile tail length
// against the frame length, a tail length with no tail bytes behind it, a
// tail on a frame of exactly MaxFrameBytes — the reader never panics, never
// asks for or returns more than MaxFrameBytes, and agrees with
// DecodeFrameBody on every frame that is wholly there: both accept it and
// produce the same message, or the reader rejects it with a FrameError.
func FuzzFrameTail(f *testing.F) {
	for _, stream := range hostileTailStreams() {
		f.Add(stream)
	}
	chunk := &msg.Message{ID: 7, Kind: msg.KindBlobChunkAck, CorrelID: 3, Payload: []byte("p"), Tail: []byte("0123456789")}
	whole, _ := AppendFrame(nil, chunk)
	f.Add(whole)
	f.Add(whole[:len(whole)-len(chunk.Tail)]) // tail length, no tail bytes
	chunk.Tail = make([]byte, MaxFrameBytes-(SizeOf(chunk)-len(chunk.Tail)))
	full, _ := AppendFrame(nil, chunk) // a tail on a frame of exactly MaxFrameBytes
	f.Add(full)
	f.Add(full[:64])
	f.Fuzz(func(t *testing.T, stream []byte) {
		post := func(head *msg.Message, n int) []byte {
			if n <= 0 || n > MaxFrameBytes {
				t.Errorf("reader asked for a tail buffer of %d bytes", n)
			}
			if head.CorrelID%2 == 0 {
				return nil
			}
			return make([]byte, n)
		}
		m, size, err := NewFrameReader(bytes.NewReader(stream), post).Next()
		var bad *FrameError
		if err == nil {
			if size > len(stream) || size > FrameHeaderBytes+MaxFrameBytes {
				t.Fatalf("frame of %d bytes read from a %d-byte stream", size, len(stream))
			}
			want, werr := DecodeFrameBody(stream[FrameHeaderBytes:size])
			if werr != nil || !reflect.DeepEqual(m, want) {
				t.Fatalf("reader accepted %+v; DecodeFrameBody: %+v, %v", m, want, werr)
			}
			return
		}
		if m != nil {
			t.Fatalf("message returned with error %v", err)
		}
		if errors.As(err, &bad) {
			return
		}
		// Anything else is the stream running out, which it may only do
		// short of the frame it announced.
		if err != io.EOF && err != io.ErrUnexpectedEOF {
			t.Fatalf("unexpected error %v", err)
		}
		if len(stream) >= FrameHeaderBytes {
			if n := binary.BigEndian.Uint32(stream); uint64(len(stream)) >= FrameHeaderBytes+uint64(n) {
				t.Fatalf("%v on a stream holding its whole %d-byte frame", err, n)
			}
		}
	})
}

// FuzzUnmarshalPayload: arbitrary bytes against every decode target must
// error cleanly, never panic.
func FuzzUnmarshalPayload(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{Version, byte(tHeartbeat)})
	f.Add(Marshal(&protocol.Heartbeat{Node: "n", Seq: 1}))
	f.Add(Marshal(&protocol.TSOpReq{Tuple: tuplespace.Tuple{"x"}}))
	f.Add(Marshal(&protocol.TSOpReq{NoReply: true, Tuple: tuplespace.Tuple{7}}))
	f.Add(Marshal(&protocol.DataPutReq{JobID: "j", Key: "k", Digest: "d", Size: 3, Data: []byte{1, 2, 3}}))
	f.Add(Marshal(&protocol.DataLocResp{Key: "k", Digest: "d", Node: "n", Size: 3}))
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, out := range bodies() {
			_ = Unmarshal(b, out)
		}
	})
}

// FuzzRoundTripHeartbeat: structured fuzzing of the hottest body — any
// input that marshals must unmarshal to the same value.
func FuzzRoundTripHeartbeat(f *testing.F) {
	f.Add("node1", uint64(1), "job", "task", true, uint64(42))
	f.Fuzz(func(t *testing.T, node string, seq uint64, jobID, taskName string, running bool, progress uint64) {
		in := &protocol.Heartbeat{Node: node, Seq: seq, Beats: []protocol.TaskBeat{
			{JobID: jobID, Task: taskName, Running: running, Progress: progress},
		}}
		enc := Marshal(in)
		var out protocol.Heartbeat
		if err := Unmarshal(enc, &out); err != nil {
			t.Fatal(err)
		}
		if out.Node != in.Node || out.Seq != in.Seq || len(out.Beats) != 1 || out.Beats[0] != in.Beats[0] {
			t.Errorf("round trip mismatch: %+v vs %+v", in, out)
		}
	})
}

// FuzzRoundTripTSOpReq: structured fuzzing of the tuple-space request —
// the body of every Out — including the trailing v5 NoReply flag: any input
// that marshals must unmarshal to the same value. The job and the requester
// are the envelope's, so a request naming them in the body loses them.
func FuzzRoundTripTSOpReq(f *testing.F) {
	f.Add("node1-job1", "w1", "res", int64(7), int64(0), true)
	f.Add("", "client", "", int64(-1), int64(1000), false)
	f.Fuzz(func(t *testing.T, jobID, from, s string, i, parkMS int64, noReply bool) {
		in := &protocol.TSOpReq{ParkMS: parkMS, NoReply: noReply, Tuple: tuplespace.Tuple{s, int(i), i, []byte(s)}}
		if s == "" {
			in.Tuple[3] = []byte(nil) // an empty slice travels as nil
		}
		enc := Marshal(in)
		var out protocol.TSOpReq
		if err := Unmarshal(enc, &out); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&out, in) {
			t.Errorf("round trip mismatch: %+v vs %+v", in, out)
		}
	})
}

// FuzzRoundTripTaskEvents: structured fuzzing of the lifecycle batch — the
// frame every task's start and end, a retry and a job's end travel in: any
// batch of the five labels that marshals must unmarshal to the same value,
// spans, a retry's Speculative and a job label's TaskErrs included, and a
// label outside the five must be refused by the decoder, never delivered.
func FuzzRoundTripTaskEvents(f *testing.F) {
	f.Add("node1-job1", "node2", "t01", "", int64(0), uint8(0), "tm.exec", int64(1500), false, uint64(3), int64(7000))
	f.Add("", "", "", "task panic: boom", int64(2), uint8(2), "", int64(0), true, uint64(0), int64(0))
	f.Add("j", "n", "t", "x", int64(-1), uint8(7), "s", int64(-5), false, uint64(1<<63), int64(-1))
	f.Add("node1-job1", "node3", "t07", "node node2 died", int64(1), uint8(3), "", int64(0), true, uint64(1), int64(8000))
	f.Add("node1-job1", "node2", "", "one or more tasks failed", int64(0), uint8(4), "", int64(0), false, uint64(0), int64(0))
	f.Fuzz(func(t *testing.T, jobID, node, taskName, errText string, attempt int64, label uint8, spanName string, durNS int64, speculative bool, seq uint64, freeMB int64) {
		kinds := []msg.Kind{msg.KindTaskStarted, msg.KindTaskCompleted, msg.KindTaskFailed,
			msg.KindTaskRetried, msg.KindJobCompleted, msg.KindJobFailed}
		in := &protocol.TaskEvents{JobID: jobID, Node: node, Events: []protocol.TaskEventItem{
			{Kind: kinds[int(label)%3], Task: taskName},
			{Kind: kinds[(int(label)+1)%3], Task: taskName, Err: errText, Attempt: int(attempt), Spans: []trace.Span{
				{Trace: 7, ID: 8, Parent: 7, Name: spanName, Node: node, Job: jobID, Task: taskName,
					Start: time.Unix(0, 1_700_000_000_000_000_000), Dur: time.Duration(durNS), Err: errText},
			}},
			{Kind: msg.KindTaskRetried, Task: taskName, Err: errText, Attempt: int(attempt), Speculative: speculative},
			{Kind: kinds[4+int(label)%2], Err: errText, TaskErrs: map[string]string{taskName: errText}},
		}, Capacity: protocol.Capacity{Seq: seq, FreeMemoryMB: int(freeMB), RunningTasks: int(label)}}
		enc := Marshal(in)
		var out protocol.TaskEvents
		if err := Unmarshal(enc, &out); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&out, in) {
			t.Errorf("round trip mismatch: %+v vs %+v", in, out)
		}
		bad := msg.Kind(label)
		for _, k := range kinds {
			if bad == k {
				bad = msg.KindUser
			}
		}
		in.Events[int(label)%len(in.Events)].Kind = bad
		enc = Marshal(in)
		if err := Unmarshal(enc, new(protocol.TaskEvents)); err == nil {
			t.Errorf("a batch with an event labelled %s decoded", bad)
		}
	})
}

// TestTaskEventsBounds: the decoder refuses a batch no sender produces —
// one event more than a frame may carry — and accepts one at the bound.
func TestTaskEventsBounds(t *testing.T) {
	batch := protocol.TaskEvents{JobID: "j", Node: "n", Events: make([]protocol.TaskEventItem, protocol.TaskEventsMax+1)}
	for i := range batch.Events {
		batch.Events[i] = protocol.TaskEventItem{Kind: msg.KindTaskCompleted, Task: "t"}
	}
	enc := Marshal(batch)
	if err := Unmarshal(enc, new(protocol.TaskEvents)); err == nil {
		t.Errorf("a batch of %d events decoded", len(batch.Events))
	}
	batch.Events = batch.Events[:protocol.TaskEventsMax]
	enc = Marshal(batch)
	var out protocol.TaskEvents
	if err := Unmarshal(enc, &out); err != nil || len(out.Events) != protocol.TaskEventsMax {
		t.Errorf("a batch at the bound: %d events, err %v", len(out.Events), err)
	}
}

// FuzzRoundTripTMOffer: structured fuzzing of the extended placement offer
// — the figure's sequence and the v3 locality fields (resident digests,
// stall count) must survive a round trip for any input, including empty
// digest strings and zero counts.
func FuzzRoundTripTMOffer(f *testing.F) {
	f.Add("node1", int64(4000), int64(2), "d1", "d2", int64(1), uint64(5))
	f.Add("", int64(0), int64(0), "", "", int64(0), uint64(0))
	f.Fuzz(func(t *testing.T, node string, freeMB, running int64, dig1, dig2 string, stalled int64, seq uint64) {
		in := &protocol.TMOffer{Node: node, FreeMemoryMB: int(freeMB), RunningTasks: int(running), Seq: seq,
			ResidentDigests: []string{dig1, dig2}, StalledTasks: int(stalled)}
		enc := Marshal(in)
		var out protocol.TMOffer
		if err := Unmarshal(enc, &out); err != nil {
			t.Fatal(err)
		}
		if out.Node != in.Node || out.FreeMemoryMB != in.FreeMemoryMB || out.Seq != in.Seq ||
			out.RunningTasks != in.RunningTasks || out.StalledTasks != in.StalledTasks ||
			len(out.ResidentDigests) != 2 ||
			out.ResidentDigests[0] != dig1 || out.ResidentDigests[1] != dig2 {
			t.Errorf("round trip mismatch: %+v vs %+v", in, out)
		}
	})
}

// FuzzRoundTripDataLoc: structured fuzzing of the data-plane location reply
// — any input that marshals must unmarshal to the same value, including the
// inline payload bytes.
func FuzzRoundTripDataLoc(f *testing.F) {
	f.Add("wc/chunk/map1", "abc", "node1", int64(1<<20), []byte{1, 2, 3}, false, "")
	f.Add("k", "", "", int64(0), []byte(nil), true, "closed")
	f.Fuzz(func(t *testing.T, key, digest, node string, size int64, data []byte, retry bool, errStr string) {
		in := &protocol.DataLocResp{Key: key, Digest: digest, Node: node, Size: size,
			Data: data, Retry: retry, Err: errStr}
		enc := Marshal(in)
		var out protocol.DataLocResp
		if err := Unmarshal(enc, &out); err != nil {
			t.Fatal(err)
		}
		if out.Key != in.Key || out.Digest != in.Digest || out.Node != in.Node ||
			out.Size != in.Size || !bytes.Equal(out.Data, in.Data) ||
			out.Retry != in.Retry || out.Closed != in.Closed || out.Err != in.Err {
			t.Errorf("round trip mismatch: %+v vs %+v", in, out)
		}
	})
}

// FuzzReadTuple: the tuple codec on arbitrary bytes never panics, and a
// tuple or template it decodes re-encodes to bytes that decode and encode
// identically again — field by field, kind tag and value bits, so a NaN
// counts as itself. (The first encoding need not be the input: the slots a
// field's kind does not read are written as zero.)
func FuzzReadTuple(f *testing.F) {
	f.Add(AppendTuple(nil, tuplespace.Tuple{"row", 3, int64(9), 1.5, true, []byte{0xCA, 0xFE}}))
	f.Add(AppendTuple(nil, tuplespace.Template{"k", tuplespace.Wildcard, tuplespace.TypeOf(0), tuplespace.TypeOf([]byte(nil))}))
	f.Add(AppendTuple(nil, tuplespace.Tuple{}))
	f.Add([]byte{1, 4, 't', 'y', 'p', 'e', 4, 'c', 'h', 'a', 'n', 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		tuple, err := ReadTuple(NewReader(b))
		if err != nil {
			return
		}
		enc := AppendTuple(nil, tuple)
		back, err := ReadTuple(NewReader(enc))
		if err != nil {
			t.Fatalf("%v re-encodes to bytes that do not decode: %v", tuple, err)
		}
		if again := AppendTuple(nil, back); !bytes.Equal(again, enc) {
			t.Fatalf("%v encodes as %x, then as %x", tuple, enc, again)
		}
	})
}
