package protocol_test

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"cn/internal/protocol"
	"cn/internal/tuplespace"
	"cn/internal/wire"
)

// roundTrip carries fields as a TSOpReq through the wire codec.
func roundTrip(t *testing.T, fields []any) (tuplespace.Tuple, error) {
	t.Helper()
	enc := wire.Marshal(&protocol.TSOpReq{Tuple: fields})
	var out protocol.TSOpReq
	err := wire.Unmarshal(enc, &out)
	return out.Tuple, err
}

func TestTupleRoundTrip(t *testing.T) {
	in := tuplespace.Tuple{"row", 3, int64(9), 1.5, true, []byte{0xCA, 0xFE}}
	if err := protocol.CheckTuple(in); err != nil {
		t.Fatal(err)
	}
	out, err := roundTrip(t, in)
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
	for name, bad := range map[string]tuplespace.Tuple{
		"empty":    {},
		"struct":   {"ok", struct{ X int }{1}},
		"map":      {map[string]int{"a": 1}},
		"int32":    {int32(1)},
		"wildcard": {"k", tuplespace.Wildcard},
		"typeof":   {"k", tuplespace.TypeOf(0)},
	} {
		if err := protocol.CheckTuple(bad); err == nil {
			t.Errorf("%s: tuple %v accepted", name, bad)
		}
	}
}

func TestTemplateRoundTripMatchesLikeOriginal(t *testing.T) {
	tpl := tuplespace.Template{"row", tuplespace.Wildcard, tuplespace.TypeOf(0), "x"}
	if err := protocol.CheckTemplate(tpl); err != nil {
		t.Fatal(err)
	}
	back, err := roundTrip(t, tpl)
	if err != nil {
		t.Fatal(err)
	}
	match := tuplespace.Tuple{"row", []byte{1}, 7, "x"}
	miss := tuplespace.Tuple{"row", []byte{1}, int64(7), "x"} // int64 != TypeOf(int)
	for _, cand := range []tuplespace.Template{tpl, tuplespace.Template(back)} {
		if !cand.Matches(match) {
			t.Errorf("template %v does not match %v", cand, match)
		}
		if cand.Matches(miss) {
			t.Errorf("template %v matches %v; TypeOf(int) must reject int64", cand, miss)
		}
	}
}

func TestTemplateRejectsNonScalarTypeOf(t *testing.T) {
	if err := protocol.CheckTemplate(tuplespace.Template{tuplespace.TypeOf(struct{}{})}); err == nil {
		t.Fatal("TypeOf(struct{}) accepted; want error")
	}
	if err := protocol.CheckTemplate(tuplespace.Template{"k", []int{1}}); err == nil {
		t.Fatal("a slice value accepted; want error")
	}
}

func TestDecodeUnknownFieldKind(t *testing.T) {
	for _, f := range []protocol.TSField{{Kind: "nope"}, {Kind: protocol.TSTypeOf, S: "chan int"}} {
		enc := wire.Marshal(&protocol.TSOpReq{Fields: []protocol.TSField{f}})
		if err := wire.Unmarshal(enc, new(protocol.TSOpReq)); err == nil {
			t.Errorf("field %+v decoded; want error", f)
		}
	}
}

// FuzzTSFields: a request spelling its tuple in the pre-version-8 TSField
// form never panics the decoder, and whatever decodes carries what each
// field's kind says and re-encodes, in the tuple form, to the same bytes.
func FuzzTSFields(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5}, "row", int64(7), 1.5, true, []byte{0xCA, 0xFE})
	f.Add([]byte{6, 7, 1}, "int", int64(-1), 0.0, false, []byte(nil))
	f.Add([]byte{7, 8}, "[]byte", int64(0), -2.5, false, []byte{})
	f.Add([]byte{}, "", int64(0), 0.0, false, []byte(nil))
	kinds := []string{protocol.TSString, protocol.TSInt, protocol.TSInt64, protocol.TSFloat,
		protocol.TSBool, protocol.TSBytes, protocol.TSWildcard, protocol.TSTypeOf}
	f.Fuzz(func(t *testing.T, shape []byte, s string, i int64, fl float64, b bool, x []byte) {
		if len(shape) > 16 {
			shape = shape[:16]
		}
		fields := make([]protocol.TSField, len(shape))
		for n, k := range shape {
			kind := s // one slot past the known kinds: a kind the fuzzer names
			if int(k)%(len(kinds)+1) < len(kinds) {
				kind = kinds[int(k)%(len(kinds)+1)]
			}
			fields[n] = protocol.TSField{Kind: kind, S: s, I: i + int64(n), F: fl, B: b, Bytes: x}
		}
		enc := wire.Marshal(&protocol.TSOpReq{Fields: fields})
		var req protocol.TSOpReq
		if err := wire.Unmarshal(enc, &req); err != nil {
			return
		}
		if len(req.Tuple) != len(fields) {
			t.Fatalf("%d fields decoded from %d", len(req.Tuple), len(fields))
		}
		for n, w := range fields {
			if !carries(req.Tuple[n], w) {
				t.Fatalf("field %d: %+v decoded as %#v", n, w, req.Tuple[n])
			}
		}
		again := wire.Marshal(&protocol.TSOpReq{Tuple: req.Tuple})
		var back protocol.TSOpReq
		if err := wire.Unmarshal(again, &back); err != nil {
			t.Fatalf("%v re-encodes to bytes that do not decode: %v", req.Tuple, err)
		}
		if third := wire.Marshal(&protocol.TSOpReq{Tuple: back.Tuple}); !bytes.Equal(third, again) {
			t.Fatalf("%v encodes as %x, then as %x", req.Tuple, again, third)
		}
	})
}

// carries reports whether the decoded value v is what field w's kind says.
func carries(v any, w protocol.TSField) bool {
	switch w.Kind {
	case protocol.TSString:
		return v == w.S
	case protocol.TSInt:
		return v == int(w.I)
	case protocol.TSInt64:
		return v == w.I
	case protocol.TSFloat:
		f, ok := v.(float64)
		return ok && math.Float64bits(f) == math.Float64bits(w.F)
	case protocol.TSBool:
		return v == w.B
	case protocol.TSBytes:
		x, ok := v.([]byte)
		return ok && bytes.Equal(x, w.Bytes)
	case protocol.TSWildcard:
		return tuplespace.IsWildcard(v)
	case protocol.TSTypeOf:
		name, _ := tuplespace.TypeName(v)
		return name == w.S
	}
	return false
}
