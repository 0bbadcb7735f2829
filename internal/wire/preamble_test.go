package wire

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// TestConnPreamble: a preamble reads back as the name it announced and
// leaves the frame behind it unread; a malformed or cut-off one is a
// *FrameError; a stream that ends before it is a clean io.EOF. The read
// allocates nothing, good preamble or bad.
func TestConnPreamble(t *testing.T) {
	pre, err := AppendConnPreamble(nil, "node7")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pre, []byte{'C', 'N', 10, 5, 'n', 'o', 'd', 'e', '7'}) {
		t.Errorf("preamble bytes % x", pre)
	}
	for _, name := range []string{"", strings.Repeat("n", MaxPeerName+1)} {
		if _, err := AppendConnPreamble(nil, name); err == nil {
			t.Errorf("a name of %d bytes was announced", len(name))
		}
	}
	buf := make([]byte, MaxPreambleBytes)
	r := bytes.NewReader(append(pre, "frame"...))
	name, err := ReadConnPreamble(r, buf)
	if err != nil || string(name) != "node7" || r.Len() != len("frame") {
		t.Errorf("read %q, %v with %d bytes left; want node7 and the frame's 5", name, err, r.Len())
	}
	if _, err := ReadConnPreamble(bytes.NewReader(nil), buf); err != io.EOF {
		t.Errorf("empty stream: %v, want io.EOF", err)
	}
	bad := map[string][]byte{
		"magic":     append([]byte{'X'}, pre[1:]...),
		"version":   append([]byte{Magic0, Magic1, Version}, pre[3:]...),
		"no name":   {Magic0, Magic1, ConnVersion, 0},
		"long name": append([]byte{Magic0, Magic1, ConnVersion, MaxPeerName + 1}, make([]byte, MaxPeerName+1)...),
		"cut head":  pre[:2],
		"cut name":  pre[:6],
	}
	for what, p := range bad {
		var fe *FrameError
		if _, err := ReadConnPreamble(bytes.NewReader(p), buf); !errors.As(err, &fe) {
			t.Errorf("%s: %v, want a *FrameError", what, err)
		}
		rd := bytes.NewReader(p)
		if n := testing.AllocsPerRun(10, func() {
			rd.Reset(p)
			_, _ = ReadConnPreamble(rd, buf)
		}); n != 0 {
			t.Errorf("%s: a bad preamble allocates %.0f objects, want 0", what, n)
		}
	}
	rd := bytes.NewReader(pre)
	if n := testing.AllocsPerRun(10, func() {
		rd.Reset(pre)
		_, _ = ReadConnPreamble(rd, buf)
	}); n != 0 {
		t.Errorf("a good preamble allocates %.0f objects, want 0", n)
	}
}
