package wire

import (
	"testing"

	"cn/internal/protocol"
)

// TestHotBodyAllocs guards the allocation count of the bodies every
// tuple-space op and task event pays for. Encoding costs the output buffer
// and nothing else, in the value form as in the pointer form (the table's
// value adapter must not force a heap copy of the body); decoding costs the
// Reader plus one allocation per decoded string or slice.
func TestHotBodyAllocs(t *testing.T) {
	fields := []protocol.TSField{{Kind: protocol.TSString, S: "res"}, {Kind: protocol.TSInt, I: 7}, {Kind: protocol.TSInt, I: 49}}
	req := protocol.TSOpReq{JobID: "node1-job1", FromTask: "w1", ParkMS: 1000, Fields: fields}
	resp := protocol.TSOpResp{OK: true, Fields: fields}
	ev := protocol.TaskEvent{JobID: "node1-job1", Task: "t01", Node: "node2", Attempt: 1}
	for _, tc := range []struct {
		name      string
		ptr, val  any
		decode    func(enc []byte) error
		maxDecode float64
	}{
		{"TSOpReq", &req, req, func(enc []byte) error { return Default.Unmarshal(enc, new(protocol.TSOpReq)) }, 6},
		{"TSOpResp", &resp, resp, func(enc []byte) error { return Default.Unmarshal(enc, new(protocol.TSOpResp)) }, 4},
		{"TaskEvent", &ev, ev, func(enc []byte) error { return Default.Unmarshal(enc, new(protocol.TaskEvent)) }, 5},
	} {
		for form, v := range map[string]any{"pointer": tc.ptr, "value": tc.val} {
			if n := testing.AllocsPerRun(200, func() {
				if _, err := Default.Marshal(v); err != nil {
					t.Fatal(err)
				}
			}); n > 1 {
				t.Errorf("%s encode (%s form): %.0f allocs/op, want 1 (the output buffer)", tc.name, form, n)
			}
		}
		enc, err := Default.Marshal(tc.ptr)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(200, func() {
			if err := tc.decode(enc); err != nil {
				t.Fatal(err)
			}
		}); n > tc.maxDecode {
			t.Errorf("%s decode: %.0f allocs/op, want <= %.0f", tc.name, n, tc.maxDecode)
		}
	}
}
