package wire

import (
	"fmt"
	"testing"

	"cn/internal/msg"
	"cn/internal/protocol"
	"cn/internal/tuplespace"
)

// TestHotBodyAllocs guards the allocation count of the bodies every
// tuple-space op and task event pays for. Encoding costs the output buffer
// and nothing else, in the value form as in the pointer form (the table's
// value adapter must not force a heap copy of the body); decoding costs the
// Reader plus one allocation per decoded string or slice, and a tuple its
// field slice plus the boxing of each field that needs one — a string
// takes two (its bytes and its box), an int under 256 none.
func TestHotBodyAllocs(t *testing.T) {
	req := protocol.TSOpReq{ParkMS: 1000, Tuple: tuplespace.Tuple{"res", 7, 49}}
	resp := protocol.TSOpResp{OK: true, Tuple: tuplespace.Tuple{"res", 7, 49}}
	// A node's share of a 32-task fan-out as it leaves the outbox: decoding
	// costs the Reader, the two batch strings and the event slice, then one
	// task name per event (2 per event is the budget; a failure adds its text).
	batch := protocol.TaskEvents{JobID: "node1-job1", Node: "node2"}
	for i := 0; i < 16; i++ {
		name := fmt.Sprintf("t%02d", i)
		batch.Events = append(batch.Events,
			protocol.TaskEventItem{Kind: msg.KindTaskStarted, Task: name},
			protocol.TaskEventItem{Kind: msg.KindTaskCompleted, Task: name})
	}
	exec := protocol.ExecTaskReq{JobID: "node1-job1", Tasks: []string{"t00", "t01", "t02", "t03", "t04", "t05", "t06", "t07"}}
	for _, tc := range []struct {
		name      string
		ptr, val  any
		decode    func(enc []byte) error
		maxDecode float64
	}{
		{"TSOpReq", &req, req, func(enc []byte) error { return Unmarshal(enc, new(protocol.TSOpReq)) }, 5},
		{"TSOpResp", &resp, resp, func(enc []byte) error { return Unmarshal(enc, new(protocol.TSOpResp)) }, 5},
		{"TaskEvents", &batch, batch, func(enc []byte) error { return Unmarshal(enc, new(protocol.TaskEvents)) }, 2*32 + 4},
		{"ExecTaskReq", &exec, exec, func(enc []byte) error { return Unmarshal(enc, new(protocol.ExecTaskReq)) }, 8 + 4},
	} {
		for form, v := range map[string]any{"pointer": tc.ptr, "value": tc.val} {
			if n := testing.AllocsPerRun(200, func() {
				_ = Marshal(v)
			}); n > 1 {
				t.Errorf("%s encode (%s form): %.0f allocs/op, want 1 (the output buffer)", tc.name, form, n)
			}
		}
		enc := Marshal(tc.ptr)
		if n := testing.AllocsPerRun(200, func() {
			if err := tc.decode(enc); err != nil {
				t.Fatal(err)
			}
		}); n > tc.maxDecode {
			t.Errorf("%s decode: %.0f allocs/op, want <= %.0f", tc.name, n, tc.maxDecode)
		}
	}
}
