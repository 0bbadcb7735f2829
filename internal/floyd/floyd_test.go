package floyd

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewMatrix(t *testing.T) {
	m := NewMatrix(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := Inf
			if i == j {
				want = 0
			}
			if m.At(i, j) != want {
				t.Errorf("At(%d,%d) = %d", i, j, m.At(i, j))
			}
		}
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	m := RandomGraph(12, 0.3, 9, 42)
	s := m.String()
	if !strings.HasPrefix(s, "12\n") {
		t.Errorf("header: %q", s[:10])
	}
	if !strings.Contains(s, "inf") {
		t.Error("no inf entries in sparse graph")
	}
	p, err := ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Equal(m) {
		t.Error("round trip mismatch")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"abc\n",
		"0\n",
		"-3\n",
		"2\n1 2 3\n4 5 6\n", // wrong width
		"2\n1 2\n",          // missing row
		"2\n1 x\n3 4\n",     // bad entry
	}
	for _, c := range cases {
		if _, err := ParseString(c); err == nil {
			t.Errorf("Parse(%q) accepted", c)
		}
	}
}

func TestSequentialRing(t *testing.T) {
	const n = 8
	s := Sequential(RingGraph(n))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := int64((j - i + n) % n)
			if s.At(i, j) != want {
				t.Errorf("d(%d,%d) = %d, want %d", i, j, s.At(i, j), want)
			}
		}
	}
}

func TestSequentialDisconnected(t *testing.T) {
	m := NewMatrix(4)
	m.Set(0, 1, 5)
	// nodes 2,3 disconnected from 0,1
	m.Set(2, 3, 7)
	s := Sequential(m)
	if s.At(0, 1) != 5 || s.At(2, 3) != 7 {
		t.Error("direct edges wrong")
	}
	if s.At(0, 2) != Inf || s.At(1, 3) != Inf || s.At(3, 0) != Inf {
		t.Error("disconnected pairs should stay Inf")
	}
}

func TestSequentialTriangleImprovement(t *testing.T) {
	m := NewMatrix(3)
	m.Set(0, 1, 1)
	m.Set(1, 2, 1)
	m.Set(0, 2, 10)
	s := Sequential(m)
	if s.At(0, 2) != 2 {
		t.Errorf("d(0,2) = %d, want 2 via node 1", s.At(0, 2))
	}
}

func TestVerifyShortestPaths(t *testing.T) {
	s := Sequential(RandomGraph(20, 0.2, 9, 7))
	if err := VerifyShortestPaths(s); err != nil {
		t.Fatal(err)
	}
	bad := s.Clone()
	bad.Set(0, 0, 3)
	if err := VerifyShortestPaths(bad); err == nil {
		t.Error("nonzero diagonal accepted")
	}
	bad2 := s.Clone()
	// Introduce a triangle violation if possible.
	bad2.Set(0, 1, Inf-1)
	if err := VerifyShortestPaths(bad2); err == nil {
		// Only an error if a 2-hop path 0->k->1 is shorter; with density
		// 0.2 over 20 nodes this is effectively certain.
		t.Log("no triangle violation detected; graph may be too sparse")
	}
}

func TestClosureMatchesSequential(t *testing.T) {
	m := RandomGraph(15, 0.15, 5, 3)
	s := Sequential(m)
	reach := Closure(m)
	for i := 0; i < m.N; i++ {
		for j := 0; j < m.N; j++ {
			want := i == j || s.At(i, j) < Inf
			if reach[i][j] != want {
				t.Errorf("reach(%d,%d) = %v, want %v", i, j, reach[i][j], want)
			}
		}
	}
}

func TestBlockBoundsCoverAllRows(t *testing.T) {
	for _, n := range []int{1, 5, 16, 17, 100} {
		for _, w := range []int{1, 2, 3, 7, 16} {
			if w > n {
				continue
			}
			covered := 0
			prevEnd := 0
			for idx := 0; idx < w; idx++ {
				s, e := BlockBounds(n, w, idx)
				if s != prevEnd {
					t.Errorf("n=%d w=%d idx=%d: start %d != prev end %d", n, w, idx, s, prevEnd)
				}
				covered += e - s
				prevEnd = e
			}
			if covered != n || prevEnd != n {
				t.Errorf("n=%d w=%d: covered %d rows", n, w, covered)
			}
		}
	}
}

func TestOwnerOfConsistent(t *testing.T) {
	const n, w = 23, 5
	for k := 0; k < n; k++ {
		o := OwnerOf(n, w, k)
		s, e := BlockBounds(n, w, o)
		if k < s || k >= e {
			t.Errorf("row %d assigned to worker %d with range [%d,%d)", k, o, s, e)
		}
	}
}

func TestParallelInProcessMatchesSequential(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 7} {
		m := RandomGraph(33, 0.25, 9, int64(workers)+100)
		want := Sequential(m)
		got := ParallelInProcess(m, workers)
		if !got.Equal(want) {
			t.Errorf("workers=%d: parallel result differs from sequential", workers)
		}
	}
}

func TestParallelInProcessMoreWorkersThanRows(t *testing.T) {
	m := RandomGraph(3, 0.5, 5, 9)
	got := ParallelInProcess(m, 16)
	if !got.Equal(Sequential(m)) {
		t.Error("clamped worker count produced wrong result")
	}
}

func TestRandomGraphDeterministic(t *testing.T) {
	a := RandomGraph(10, 0.3, 9, 5)
	b := RandomGraph(10, 0.3, 9, 5)
	if !a.Equal(b) {
		t.Error("same seed produced different graphs")
	}
	c := RandomGraph(10, 0.3, 9, 6)
	if a.Equal(c) {
		t.Error("different seeds produced identical graphs")
	}
}

func TestSequentialIdempotent(t *testing.T) {
	// Floyd of a shortest-path matrix is a fixed point.
	f := func(seed int64) bool {
		m := RandomGraph(12, 0.3, 9, seed)
		s := Sequential(m)
		return Sequential(s).Equal(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestMatrixCloneIndependent(t *testing.T) {
	m := RingGraph(4)
	c := m.Clone()
	c.Set(0, 1, 99)
	if m.At(0, 1) != 1 {
		t.Error("Clone aliases original")
	}
}

func TestMatrixEqualEdgeCases(t *testing.T) {
	m := RingGraph(4)
	if m.Equal(nil) {
		t.Error("Equal(nil)")
	}
	if m.Equal(RingGraph(5)) {
		t.Error("Equal across sizes")
	}
}

func TestSpecsShape(t *testing.T) {
	specs, err := Specs(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 7 {
		t.Fatalf("specs = %d", len(specs))
	}
	if specs[0].Name != "tctask0" || specs[0].Class != ClassTaskSplit {
		t.Errorf("split = %+v", specs[0])
	}
	join := specs[len(specs)-1]
	if join.Name != "tctask999" || len(join.DependsOn) != 5 {
		t.Errorf("join = %+v", join)
	}
	w3 := specs[3]
	if w3.Name != "tctask3" {
		t.Fatalf("specs[3] = %q", w3.Name)
	}
	if v, err := w3.Params[0].Int(); err != nil || v != 3 {
		t.Errorf("worker pvalue0 = %v, %v", v, err)
	}
	if _, err := Specs(0); err == nil {
		t.Error("Specs(0) accepted")
	}
}

func TestBuildModelValidates(t *testing.T) {
	for _, w := range []int{1, 2, 5} {
		g, err := BuildModel(w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		deps, err := g.Dependencies()
		if err != nil {
			t.Fatal(err)
		}
		if len(deps[JoinTaskName]) != w {
			t.Errorf("workers=%d: join deps = %v", w, deps[JoinTaskName])
		}
	}
}

func TestBuildDynamicModel(t *testing.T) {
	g, err := BuildDynamicModel()
	if err != nil {
		t.Fatal(err)
	}
	n := g.Node(WorkerPrefix)
	if n == nil || !n.Dynamic || n.ArgExpr != "rowBlocks" {
		t.Fatalf("dynamic node = %+v", n)
	}
	args := DynamicArgs(3)
	lists, err := args("rowBlocks")
	if err != nil {
		t.Fatal(err)
	}
	if len(lists) != 3 || len(lists[0]) != 4 {
		t.Errorf("arg lists = %v", lists)
	}
	if _, err := args("unknown"); err == nil {
		t.Error("unknown expression accepted")
	}
}

func TestArchives(t *testing.T) {
	ars, err := Archives()
	if err != nil {
		t.Fatal(err)
	}
	if len(ars) != 3 {
		t.Fatalf("archives = %d", len(ars))
	}
	if ars[JarTCTask].Manifest.TaskClass != ClassTCTask {
		t.Errorf("manifest = %+v", ars[JarTCTask].Manifest)
	}
}

// TestWireCodec: a message decodes to what was encoded, and neither
// garbage nor any strict prefix of an encoding decodes.
func TestWireCodec(t *testing.T) {
	m := RingGraph(4)
	data := EncodeMatrixMessage(m)
	w, err := decodeMessage(data)
	if err != nil {
		t.Fatal(err)
	}
	if w.Kind != "matrix" || w.N != 4 || !m.Equal(&Matrix{N: w.N, D: w.Rows}) {
		t.Errorf("message = %+v", w)
	}
	if _, err := decodeMessage([]byte{1, 2, 3}); err == nil {
		t.Error("garbage accepted")
	}
	for n := range data {
		if _, err := decodeMessage(data[:n]); err == nil {
			t.Errorf("the %d-byte prefix of a %d-byte message decoded", n, len(data))
		}
	}
	for _, bad := range []*message{
		{Kind: "row", N: 4, Start: 4, End: 5, Rows: m.Row(0)},
		{Kind: "row", N: 4, Start: 1, End: 2, Rows: m.Row(0)[:3]},
		{Kind: "block", N: 4, Start: 1, End: 3, Rows: m.D[:4]},
		{Kind: "result", N: 5, End: 1, Rows: m.D[:4]},
		{Kind: "result", N: 1 << 40, End: 1 << 40},
	} {
		if _, err := decodeMessage(bad.encode()); err == nil {
			t.Errorf("%+v decoded", bad)
		}
	}
	if _, err := DecodeResultMessage(data); err == nil {
		t.Error("matrix message accepted as result")
	}
}

// FuzzFloydMessage: the message decoder never panics on arbitrary bytes,
// and what it accepts re-encodes to bytes that decode and encode the same
// again. (The first encoding need not be the input: a varint may be spelled
// with more bytes than its value needs.)
func FuzzFloydMessage(f *testing.F) {
	m := RandomGraph(5, 0.5, 9, 1)
	f.Add(EncodeMatrixMessage(m))
	f.Add((&message{Kind: "block", N: 5, Start: 1, End: 3, Rows: m.D[5:15]}).encode())
	f.Add((&message{Kind: "row", N: 5, Start: 2, End: 3, Rows: m.Row(2)}).encode())
	f.Add((&message{Kind: "result", N: 5, End: 5, Rows: m.D}).encode())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		w, err := decodeMessage(b)
		if err != nil {
			return
		}
		enc := w.encode()
		back, err := decodeMessage(enc)
		if err != nil {
			t.Fatalf("%+v re-encodes to bytes that do not decode: %v", w, err)
		}
		if again := back.encode(); !bytes.Equal(again, enc) {
			t.Fatalf("%+v encodes as %x, then as %x", w, enc, again)
		}
	})
}
