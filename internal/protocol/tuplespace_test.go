package protocol

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"cn/internal/tuplespace"
)

func TestTupleRoundTrip(t *testing.T) {
	in := tuplespace.Tuple{"row", 3, int64(9), 1.5, true, []byte{0xCA, 0xFE}}
	fields, err := EncodeTuple(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeTuple(fields)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip %v -> %v", in, out)
	}
	// Dynamic types survive: int stays int, int64 stays int64, so TypeOf
	// templates keep matching across the wire.
	if _, ok := out[1].(int); !ok {
		t.Errorf("field 1 decoded as %T, want int", out[1])
	}
	if _, ok := out[2].(int64); !ok {
		t.Errorf("field 2 decoded as %T, want int64", out[2])
	}
}

func TestTupleRejectsNonScalar(t *testing.T) {
	if _, err := EncodeTuple(tuplespace.Tuple{"ok", struct{ X int }{1}}); err == nil {
		t.Fatal("struct field encoded; want error")
	}
	if _, err := EncodeTuple(tuplespace.Tuple{map[string]int{"a": 1}}); err == nil {
		t.Fatal("map field encoded; want error")
	}
}

func TestTemplateRoundTripMatchesLikeOriginal(t *testing.T) {
	tpl := tuplespace.Template{"row", tuplespace.Wildcard, tuplespace.TypeOf(0), "x"}
	fields, err := EncodeTemplate(tpl)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeTemplate(fields)
	if err != nil {
		t.Fatal(err)
	}
	match := tuplespace.Tuple{"row", []byte{1}, 7, "x"}
	miss := tuplespace.Tuple{"row", []byte{1}, int64(7), "x"} // int64 != TypeOf(int)
	for _, cand := range []tuplespace.Template{tpl, back} {
		if !cand.Matches(match) {
			t.Errorf("template %v does not match %v", cand, match)
		}
		if cand.Matches(miss) {
			t.Errorf("template %v matches %v; TypeOf(int) must reject int64", cand, miss)
		}
	}
}

func TestTemplateRejectsNonScalarTypeOf(t *testing.T) {
	if _, err := EncodeTemplate(tuplespace.Template{tuplespace.TypeOf(struct{}{})}); err == nil {
		t.Fatal("TypeOf(struct{}) encoded; want error")
	}
}

func TestDecodeUnknownFieldKind(t *testing.T) {
	if _, err := DecodeTuple([]TSField{{Kind: "nope"}}); err == nil {
		t.Fatal("unknown kind decoded; want error")
	}
	if _, err := DecodeTemplate([]TSField{{Kind: TSTypeOf, S: "chan int"}}); err == nil {
		t.Fatal("unknown TypeOf name decoded; want error")
	}
}

// FuzzTSFields: DecodeTuple and DecodeTemplate of arbitrary wire fields never
// panic, and whatever decodes re-encodes to the same fields — the members a
// field's kind does not read left out.
func FuzzTSFields(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5}, "row", int64(7), 1.5, true, []byte{0xCA, 0xFE})
	f.Add([]byte{6, 7, 1}, "int", int64(-1), 0.0, false, []byte(nil))
	f.Add([]byte{7, 8}, "[]byte", int64(0), -2.5, false, []byte{})
	f.Add([]byte{}, "", int64(0), 0.0, false, []byte(nil))
	kinds := []string{TSString, TSInt, TSInt64, TSFloat, TSBool, TSBytes, TSWildcard, TSTypeOf}
	f.Fuzz(func(t *testing.T, shape []byte, s string, i int64, fl float64, b bool, x []byte) {
		if len(shape) > 16 {
			shape = shape[:16]
		}
		fields := make([]TSField, len(shape))
		for n, k := range shape {
			kind := s // one slot past the known kinds: a kind the fuzzer names
			if int(k)%(len(kinds)+1) < len(kinds) {
				kind = kinds[int(k)%(len(kinds)+1)]
			}
			fields[n] = TSField{Kind: kind, S: s, I: i + int64(n), F: fl, B: b, Bytes: x}
		}
		if tuple, err := DecodeTuple(fields); err == nil {
			back, err := EncodeTuple(tuple)
			if err != nil {
				t.Fatalf("decoded tuple %v does not re-encode: %v", tuple, err)
			}
			sameFields(t, "tuple", back, fields)
		}
		if tpl, err := DecodeTemplate(fields); err == nil {
			back, err := EncodeTemplate(tpl)
			if err != nil {
				t.Fatalf("decoded template %v does not re-encode: %v", tpl, err)
			}
			sameFields(t, "template", back, fields)
		}
	})
}

// sameFields asserts got carries what each field of want says for its kind.
func sameFields(t *testing.T, what string, got, want []TSField) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d fields re-encoded from %d", what, len(got), len(want))
	}
	for n, w := range want {
		g := got[n]
		same := g.Kind == w.Kind
		switch w.Kind {
		case TSString, TSTypeOf:
			same = same && g.S == w.S
		case TSInt, TSInt64:
			same = same && g.I == w.I
		case TSFloat:
			same = same && math.Float64bits(g.F) == math.Float64bits(w.F)
		case TSBool:
			same = same && g.B == w.B
		case TSBytes:
			same = same && bytes.Equal(g.Bytes, w.Bytes)
		}
		if !same {
			t.Fatalf("%s field %d: %+v re-encoded as %+v", what, n, w, g)
		}
	}
}
