package wire

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

// updateGolden rewrites testdata/golden_bodies.hex from the current codec.
// The checked-in file was generated by the switch-based codec this table
// replaced; regenerate it only for a deliberate wire-format change.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_bodies.hex")

const goldenPath = "testdata/golden_bodies.hex"

// TestGoldenBytes pins the encoding of every registered body type, in both
// the pointer and the value form, to the bytes recorded in the golden file:
// a codec refactor must not move a single byte on the wire.
func TestGoldenBytes(t *testing.T) {
	if *updateGolden {
		var buf bytes.Buffer
		for _, v := range bodies() {
			fmt.Fprintf(&buf, "%s %s\n", reflect.TypeOf(v).Elem().Name(), hex.EncodeToString(Marshal(v)))
		}
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	golden := make(map[string][]byte)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, hx, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		if golden[name], err = hex.DecodeString(hx); err != nil {
			t.Fatalf("golden %s: %v", name, err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, v := range bodies() {
		name := reflect.TypeOf(v).Elem().Name()
		want, ok := golden[name]
		if !ok {
			t.Errorf("%s: no golden bytes recorded", name)
			continue
		}
		delete(golden, name)
		for form, in := range map[string]any{"pointer": v, "value": reflect.ValueOf(v).Elem().Interface()} {
			if got := Marshal(in); !bytes.Equal(got, want) {
				t.Errorf("%s (%s form) encodes to\n %x\nwant\n %x", name, form, got, want)
			}
		}
	}
	for name := range golden {
		t.Errorf("golden bytes for %s but no such body in the corpus", name)
	}
}
