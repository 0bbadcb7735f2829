package jobmgr

import (
	"bytes"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"cn/internal/dataplane"
	"cn/internal/protocol"
	"cn/internal/task"
	"cn/internal/trace"
	"cn/internal/tuplespace"
)

// ckptJob is the part of a jobState a checkpoint image is made from.
func ckptJob(name string, specs ...*task.Spec) *jobState {
	j := &jobState{
		id:         "n1-job1",
		name:       name,
		clientNode: "client",
		taskTable:  newTaskTable(len(specs)),
		blobs:      make(map[string][]byte),
		space:      tuplespace.New(),
		broker:     dataplane.NewBroker(nil),
	}
	for _, sp := range specs {
		if err := j.add(sp, protocol.ArchiveRef{}); err != nil {
			panic(err)
		}
	}
	return j
}

// place sets the tasks' nodes, in table order.
func (j *jobState) place(nodes ...string) {
	for i, node := range nodes {
		j.tasks[i].node = node
	}
}

// ckptState rebuilds from a decoded image the state it was taken of, the
// way adoptJob does but without acting on it: no ready task is started, no
// advert invalidated. The image's rows are copied, not linked in place.
func ckptState(ck *jobCheckpoint) (*jobState, error) {
	j := ckptJob(ck.name)
	j.clientNode, j.blobs = ck.clientNode, ck.blobs
	j.tasks, j.index = slices.Clone(ck.table.tasks), maps.Clone(ck.table.index)
	j.root, j.timeline = ck.root, ck.timeline
	j.broker.Restore(ck.locs)
	if ck.started {
		if err := j.start(); err != nil {
			return nil, err
		}
	}
	for _, t := range ck.tuples {
		if err := j.space.Out(t); err != nil {
			return nil, err
		}
	}
	j.tsOps.Store(ck.tsOps)
	return j, nil
}

func ckptSeeds(t testing.TB) [][]byte {
	spec := func(name string, deps ...string) *task.Spec {
		return &task.Spec{Name: name, Class: "c.Task", DependsOn: deps,
			Params: []task.Param{{Type: task.TypeInteger, Value: "7"}},
			Req:    task.Requirements{MemoryMB: 16, RunModel: task.RunAsThreadInTM}}
	}
	empty := ckptJob("empty")

	spaced := ckptJob("spaced", spec("a"), spec("b", "a"))
	spaced.place("n1", "n2")
	spaced.tasks[0].retries = 1
	spaced.tasks[1].err = "boom"
	if err := spaced.start(); err != nil {
		t.Fatal(err)
	}
	for _, tup := range []tuplespace.Tuple{{"task", 1}, {"res", 2, 4.5, true, []byte{9}}} {
		if err := spaced.space.Out(tup); err != nil {
			t.Fatal(err)
		}
	}
	spaced.tsOps.Store(2)
	spaced.root = trace.Context{TraceID: 5, SpanID: 6}
	spaced.timeline = []trace.Span{{Trace: 5, ID: 8, Parent: 6, Name: "jm.place", Job: "n1-job1", Start: time.Unix(1700000000, 0), Dur: time.Millisecond}}

	adverts := ckptJob("adverts", spec("map"), spec("red"))
	adverts.place("n1", "n2")
	adverts.tasks[0].archive = protocol.ArchiveRef{Name: "m.jar", Digest: "d0", Size: 9}
	adverts.tasks[1].archive = protocol.ArchiveRef{Name: "predeployed.jar"}
	adverts.blobs["d0"] = []byte("zip bytes")
	for _, l := range []dataplane.Loc{
		{Key: "m0.r0", Task: "map", Node: "n1", Digest: "aa", Size: 3 << 20},
		{Key: "small", Task: "map", Node: "n1", Digest: "bb", Size: 3, Inline: []byte("abc")},
		{Key: "orphan", Task: "map", Digest: "cc", Size: 1, Inline: []byte("x")},
	} {
		if err := adverts.broker.Put(l); err != nil {
			t.Fatal(err)
		}
	}

	var out [][]byte
	for _, j := range []*jobState{empty, spaced, adverts} {
		data, err := encodeJobCheckpointLocked(j)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, data)
	}
	return out
}

// FuzzDecodeJobCheckpoint: a checkpoint image arrives from a peer and is
// what an adopter rebuilds a job from — the broker table in it is how the
// adopter knows which nodes to release when the job ends. Arbitrary bytes
// never panic the decoder, and an image the decoder accepts survives the
// round trip: re-encoded from the state it describes, it decodes to the same
// image and encodes to the same bytes again.
func FuzzDecodeJobCheckpoint(f *testing.F) {
	for _, seed := range ckptSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := decodeJobCheckpoint(data)
		if err != nil {
			return
		}
		if len(ck.timeline) > maxCheckpointTraceSpans {
			return // the encoder keeps a prefix
		}
		j, err := ckptState(ck)
		if err != nil {
			return // decodable but inconsistent: adoption refuses it too
		}
		// The first encoding is the canonical one: an image may name a key
		// twice, and restoring settles pending tasks whose dependencies are
		// met.
		canon, err := encodeJobCheckpointLocked(j)
		if err != nil {
			return // past the size caps
		}
		ck1, err := decodeJobCheckpoint(canon)
		if err != nil {
			t.Fatalf("an image the encoder produced does not decode: %v", err)
		}
		j1, err := ckptState(ck1)
		if err != nil {
			t.Fatalf("an image the encoder produced does not restore: %v", err)
		}
		again, err := encodeJobCheckpointLocked(j1)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, canon) {
			t.Fatalf("re-encoding a decoded image changed it:\n%x\n%x", canon, again)
		}
		ck2, err := decodeJobCheckpoint(again)
		if err != nil || !reflect.DeepEqual(ck1, ck2) {
			t.Fatalf("decode(encode(image)) differs: %v\n%+v\n%+v", err, ck1, ck2)
		}
	})
}

// TestCheckpointSeedsRoundTrip: the seed images are canonical as they come —
// decode, restore and encode give the bytes back — and carry what they were
// built with.
func TestCheckpointSeedsRoundTrip(t *testing.T) {
	for i, seed := range ckptSeeds(t) {
		ck, err := decodeJobCheckpoint(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		j, err := ckptState(ck)
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		back, err := encodeJobCheckpointLocked(j)
		if err != nil || !bytes.Equal(back, seed) {
			t.Errorf("seed %d (%s): round trip changed the image (%v)", i, ck.name, err)
		}
		switch ck.name {
		case "spaced":
			if st := statuses(ck); len(ck.tuples) != 2 || ck.tsOps != 2 || st["a"] != StatusReady || st["b"] != StatusPending {
				t.Errorf("spaced: tuples %v, ops %d, statuses %v", ck.tuples, ck.tsOps, st)
			}
		case "adverts":
			if len(ck.locs) != 3 || ck.locs[0].Key != "m0.r0" || ck.locs[0].Node != "n1" || string(ck.locs[2].Inline) != "abc" {
				t.Errorf("adverts: locs %+v", ck.locs)
			}
		}
	}
}

// statuses is the decoded image's status per task.
func statuses(ck *jobCheckpoint) map[string]Status {
	out := make(map[string]Status)
	for _, r := range ck.table.tasks {
		out[r.spec.Name] = r.status
	}
	return out
}

// TestCheckpointSectionsRoundTrip: every section of an image decodes to what
// it was encoded from — the task records and the wire's sub-encodings under
// the image included.
func TestCheckpointSectionsRoundTrip(t *testing.T) {
	sp := func(name string, deps ...string) *task.Spec {
		return &task.Spec{Name: name, Archive: "m.jar", Class: "c.Task", DependsOn: deps,
			Params: []task.Param{{Type: task.TypeInteger, Value: "7"}, {Type: task.TypeString, Value: "x"}},
			Req:    task.Requirements{MemoryMB: 16, RunModel: task.RunAsProcess}}
	}
	j := ckptJob("all", sp("a"), sp("b", "a"), sp("c", "a", "b"))
	j.place("n1", "n2", "n1")
	j.tasks[0].archive = protocol.ArchiveRef{Name: "m.jar", Digest: "d0", Size: 4}
	j.tasks[1].archive = protocol.ArchiveRef{Name: "m.jar", Digest: "d1"}
	j.tasks[2].archive = protocol.ArchiveRef{Name: "predeployed.jar"}
	j.tasks[0].retries, j.tasks[2].retries = 2, 1
	j.tasks[1].err = "boom"
	j.blobs = map[string][]byte{"d0": []byte("zip0"), "d1": []byte("zip-one")}
	if err := j.start(); err != nil {
		t.Fatal(err)
	}
	tuples := []tuplespace.Tuple{{"task", 1, int64(-2)}, {"res", 4.5, true, []byte{9, 8}}, {"s"}}
	for _, tup := range tuples {
		if err := j.space.Out(tup); err != nil {
			t.Fatal(err)
		}
	}
	j.tsOps.Store(3)
	locs := []dataplane.Loc{
		{Key: "k0", Task: "a", Node: "n1", Digest: "aa", Size: 3 << 20},
		{Key: "k1", Task: "a", Node: "n1", Digest: "bb", Size: 3, Inline: []byte("abc")},
	}
	for _, l := range locs {
		if err := j.broker.Put(l); err != nil {
			t.Fatal(err)
		}
	}
	j.root = trace.Context{TraceID: 5, SpanID: 6, ParentID: 4}
	j.timeline = []trace.Span{{Trace: 5, ID: 8, Parent: 6, Name: "jm.place", Job: "n1-job1", Start: time.Unix(1700000000, 0), Dur: time.Millisecond}}

	data, err := encodeJobCheckpointLocked(j)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := decodeJobCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	same := func(section string, got, want any) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %+v\nwant %+v", section, got, want)
		}
	}
	same("header", []any{ck.name, ck.clientNode, ck.started}, []any{j.name, j.clientNode, true})
	same("index", ck.table.index, j.index)
	type record struct {
		spec    *task.Spec
		archive protocol.ArchiveRef
		node    string
		retries int
		err     string
		status  Status
	}
	for i := range j.tasks {
		got, want := ck.table.tasks[i], j.tasks[i]
		same("task record "+want.spec.Name,
			record{got.spec, got.archive, got.node, got.retries, got.err, got.status},
			record{want.spec, want.archive, want.node, want.retries, want.err, want.status})
	}
	same("statuses", statuses(ck), map[string]Status{"a": StatusReady, "b": StatusPending, "c": StatusPending})
	same("tuples", ck.tuples, tuples)
	same("ts ops", ck.tsOps, int64(3))
	same("blobs", ck.blobs, j.blobs)
	same("locations", ck.locs, locs)
	same("trace root", ck.root, j.root)
	same("timeline", ck.timeline, j.timeline)

	// What outlives the image is not part of it: scribbling over the image
	// changes no blob, inline copy or tuple field of the decoded state.
	for i := range data {
		data[i] = 0xEE
	}
	same("blobs after the image is gone", ck.blobs, j.blobs)
	same("inline copy after the image is gone", ck.locs[1].Inline, []byte("abc"))
	same("tuple bytes after the image is gone", ck.tuples[1][3], []byte{9, 8})

	// A job that never started and holds nothing decodes to maps adoption
	// can write to.
	data, err = encodeJobCheckpointLocked(ckptJob("bare"))
	if err != nil {
		t.Fatal(err)
	}
	if ck, err = decodeJobCheckpoint(data); err != nil || ck.table.index == nil || ck.blobs == nil || ck.started {
		t.Errorf("bare image: %v, %+v", err, ck)
	}

	// A task the image names twice cannot be a job's: it is refused.
	twice := ckptJob("twice", sp("a"), sp("b"))
	twice.tasks[1].spec = twice.tasks[0].spec
	if data, err = encodeJobCheckpointLocked(twice); err != nil {
		t.Fatal(err)
	}
	if _, err = decodeJobCheckpoint(data); err == nil || !strings.Contains(err.Error(), "already created") {
		t.Errorf("an image naming a task twice: %v, want it refused", err)
	}
}

// TestCheckpointOnlyCurrentVersion: an image of any other version — the v4
// a peer one build back would send, the next one, none — is refused by its
// version, before any of it is read.
func TestCheckpointOnlyCurrentVersion(t *testing.T) {
	img, err := encodeJobCheckpointLocked(ckptJob("versioned"))
	if err != nil {
		t.Fatal(err)
	}
	if img[0] != ckptVersion || ckptVersion != 5 {
		t.Fatalf("image starts with %d, ckptVersion %d; want 5", img[0], ckptVersion)
	}
	for _, v := range []byte{0, 3, 4, 6} {
		old := append([]byte{v}, img[1:]...)
		if _, err := decodeJobCheckpoint(old); err == nil || !strings.Contains(err.Error(), "checkpoint version") {
			t.Errorf("version %d: %v, want it refused by version", v, err)
		}
	}
	if _, err := decodeJobCheckpoint(img); err != nil {
		t.Errorf("current version refused: %v", err)
	}
}
