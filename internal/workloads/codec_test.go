package workloads

import (
	"reflect"
	"testing"
)

// TestPayloadCodecs: each body the workload tasks exchange round-trips
// through its own encoding, and every strict prefix of that encoding — a
// message cut short anywhere — fails to decode.
func TestPayloadCodecs(t *testing.T) {
	a, b := RandomDense(3, 2, 1), RandomDense(2, 4, 2)
	for _, tc := range []struct{ in, out payload }{
		{&mcCount{Inside: 785, Total: 1000}, new(mcCount)},
		{&wcChunk{Lines: []string{"the quick brown fox", "", "jumps"}}, new(wcChunk)},
		{&wcPartial{Counts: map[string]int64{"the": 4, "fox": 2}}, new(wcPartial)},
		{&mmInput{A: a, B: b}, new(mmInput)},
		{&mmBlock{StartRow: 1, ARows: &Dense{Rows: 1, Cols: 2, V: a.V[2:4]}, B: b}, new(mmBlock)},
		{&mmResult{StartRow: 2, CRows: RandomDense(1, 4, 3), OutRows: 3}, new(mmResult)},
	} {
		enc := tc.in.appendTo(nil)
		if err := unmarshal(enc, tc.out); err != nil || !reflect.DeepEqual(tc.in, tc.out) {
			t.Errorf("%T: round trip gave %+v, err %v", tc.in, tc.out, err)
		}
		for n := range enc {
			if err := unmarshal(enc[:n], tc.out); err == nil {
				t.Errorf("%T: the %d-byte prefix of its %d-byte encoding decoded", tc.in, n, len(enc))
			}
		}
	}
}

// TestDenseShapeRefused: a matrix whose entries do not fill its shape does
// not decode, so no task indexes past them.
func TestDenseShapeRefused(t *testing.T) {
	for _, d := range []*Dense{
		{Rows: 2, Cols: 2, V: []int64{1, 2, 3}},
		{Rows: 1, Cols: 0, V: []int64{1}},
		{Rows: -1, Cols: -2, V: []int64{1, 2}},
	} {
		if err := unmarshal(mmInput{A: d, B: d}.appendTo(nil), new(mmInput)); err == nil {
			t.Errorf("a %dx%d matrix of %d entries decoded", d.Rows, d.Cols, len(d.V))
		}
	}
}
