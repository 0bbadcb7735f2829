package transform

import (
	"reflect"
	"strings"
	"testing"

	"cn/internal/cnx"
	"cn/internal/core"
	"cn/internal/task"
	"cn/internal/xmi"
)

// buildFig3Client builds the Figure 3 model (explicit concurrency, 5
// workers) wrapped in a client.
func buildFig3Client(t *testing.T) *core.Client {
	t.Helper()
	g, err := core.SplitWorkerJoin("transclosure",
		core.TaskTags("tasksplit.jar", "org.jhpc.cn2.transcloser.TaskSplit", 1000, "RUN_AS_THREAD_IN_TM"),
		core.TaskTags("taskjoin.jar", "org.jhpc.cn2.transcloser.TaskJoin", 1000, "RUN_AS_THREAD_IN_TM"),
		"tctask",
		core.TaskTags("tctask.jar", "org.jhpc.cn2.trnsclsrtask.TCTask", 1000, "RUN_AS_THREAD_IN_TM"),
		5)
	if err != nil {
		t.Fatal(err)
	}
	// The splitter takes the matrix file, like Figure 2.
	g.Node("split").Tagged.SetParam(0, "String", "matrix.txt")
	g.Node("join").Tagged.SetParam(0, "String", "matrix.txt")
	c := core.NewClient("TransClosure")
	if err := c.AddJob(g); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestModelToCNXFig2Shape(t *testing.T) {
	client := buildFig3Client(t)
	doc, err := ModelToCNX(client, Options{Log: "client.log", Port: 5666})
	if err != nil {
		t.Fatal(err)
	}
	if doc.Client.Class != "TransClosure" || doc.Client.Port != 5666 {
		t.Errorf("client = %+v", doc.Client)
	}
	job := &doc.Client.Jobs[0]
	if len(job.Tasks) != 7 {
		t.Fatalf("tasks = %d", len(job.Tasks))
	}
	split := job.Task("split")
	if split == nil || split.Jar != "tasksplit.jar" || len(split.DependsList()) != 0 {
		t.Errorf("split = %+v", split)
	}
	w2 := job.Task("tctask2")
	if w2 == nil {
		t.Fatal("tctask2 missing")
	}
	if got := w2.DependsList(); len(got) != 1 || got[0] != "split" {
		t.Errorf("tctask2 depends = %v", got)
	}
	spec, err := w2.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := spec.Params[0].Int(); v != 2 {
		t.Errorf("tctask2 pvalue0 = %v (Figure 4 wants 2)", v)
	}
	join := job.Task("join")
	if got := join.DependsList(); len(got) != 5 {
		t.Errorf("join depends = %v", got)
	}
	// The document must serialize and re-validate.
	s, err := doc.EncodeString()
	if err != nil {
		t.Fatal(err)
	}
	re, err := cnx.ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := re.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestToXMIFromXMIRoundTrip(t *testing.T) {
	client := buildFig3Client(t)
	doc, err := ToXMI(client)
	if err != nil {
		t.Fatal(err)
	}
	// Serialize to XML and parse back.
	xmlText, err := doc.WriteString()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := xmi.ParseString(xmlText)
	if err != nil {
		t.Fatal(err)
	}
	client2, err := FromXMI(parsed)
	if err != nil {
		t.Fatal(err)
	}
	if client2.Name != "TransClosure" {
		t.Errorf("client name = %q", client2.Name)
	}
	g := client2.Job("transclosure")
	if g == nil {
		t.Fatal("job lost")
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("round-tripped graph invalid: %v", err)
	}
	deps, err := g.Dependencies()
	if err != nil {
		t.Fatal(err)
	}
	if got := deps["join"]; len(got) != 5 {
		t.Errorf("join deps after round trip = %v", got)
	}
	n := g.Node("tctask2")
	if n.Tagged.Get(core.TagJar) != "tctask.jar" {
		t.Errorf("tags lost: %v", n.Tagged)
	}
}

func TestXMI2CNXEndToEnd(t *testing.T) {
	client := buildFig3Client(t)
	doc, err := ToXMI(client)
	if err != nil {
		t.Fatal(err)
	}
	xmlText, err := doc.WriteString()
	if err != nil {
		t.Fatal(err)
	}
	out, err := XMI2CNXString(xmlText, Options{Port: 5666})
	if err != nil {
		t.Fatal(err)
	}
	cdoc, err := cnx.ParseString(out)
	if err != nil {
		t.Fatalf("output not parseable: %v\n%s", err, out)
	}
	if err := cdoc.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(cdoc.Client.Jobs[0].Tasks) != 7 {
		t.Errorf("tasks = %d", len(cdoc.Client.Jobs[0].Tasks))
	}
	if !strings.Contains(out, `class="org.jhpc.cn2.trnsclsrtask.TCTask"`) {
		t.Errorf("output missing worker class:\n%s", out)
	}
}

func TestXMI2CNXBadInput(t *testing.T) {
	if _, err := XMI2CNXString("<not-xmi", Options{}); err == nil {
		t.Error("malformed input accepted")
	}
	if _, err := XMI2CNXString("<XMI></XMI>", Options{}); err == nil {
		t.Error("empty XMI accepted (no graphs)")
	}
}

func TestDynamicModelToCNX(t *testing.T) {
	g, err := core.NewBuilder("dyn").
		Initial("i").
		Action("split", core.TaskTags("s.jar", "Split", 500, "RUN_AS_THREAD_IN_TM")).
		DynamicAction("worker", core.TaskTags("w.jar", "Worker", 500, "RUN_AS_THREAD_IN_TM"), "*", "rows").
		Action("join", core.TaskTags("j.jar", "Join", 500, "RUN_AS_THREAD_IN_TM")).
		Final("f").
		Flows("i", "split", "worker", "join", "f").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	client := core.NewClient("Dyn")
	if err := client.AddJob(g); err != nil {
		t.Fatal(err)
	}

	// Without a provider, lowering must fail.
	if _, err := ModelToCNX(client, Options{}); err == nil {
		t.Error("dynamic model without provider accepted")
	}

	doc, err := ModelToCNX(client, Options{Args: core.FixedArgs(3)})
	if err != nil {
		t.Fatal(err)
	}
	job := &doc.Client.Jobs[0]
	if len(job.Tasks) != 5 { // split + 3 workers + join
		t.Fatalf("tasks = %d", len(job.Tasks))
	}
	for i := 1; i <= 3; i++ {
		w := job.Task("worker" + string(rune('0'+i)))
		if w == nil {
			t.Fatalf("worker%d missing", i)
		}
		spec, err := w.Spec()
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := spec.Params[0].Int(); v != i {
			t.Errorf("worker%d param = %d", i, v)
		}
	}
	if got := job.Task("join").DependsList(); len(got) != 3 {
		t.Errorf("join depends = %v", got)
	}
}

func TestCNXToModel(t *testing.T) {
	src := `<cn2><client class="C" port="7">
	  <job name="j">
	    <task name="a" jar="a.jar" class="A"/>
	    <task name="b" jar="b.jar" class="B" depends="a">
	      <param type="Integer">9</param>
	    </task>
	    <task name="c" jar="c.jar" class="Cc" depends="a"/>
	    <task name="d" jar="d.jar" class="D" depends="b,c"/>
	  </job>
	</client></cn2>`
	cdoc, err := cnx.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	client, err := CNXToModel(cdoc)
	if err != nil {
		t.Fatal(err)
	}
	if client.Name != "C" || client.Port != 7 {
		t.Errorf("client = %+v", client)
	}
	g := client.Job("j")
	if g == nil {
		t.Fatal("job missing")
	}
	deps, err := g.Dependencies()
	if err != nil {
		t.Fatal(err)
	}
	if got := deps["d"]; len(got) != 2 || got[0] != "b" || got[1] != "c" {
		t.Errorf("d deps = %v", got)
	}
	params, err := g.Node("b").Tagged.Params()
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := params[0].Int(); v != 9 {
		t.Errorf("b param = %v", params)
	}
}

func TestCNXModelCNXFixedPoint(t *testing.T) {
	// Lowering a lifted descriptor must preserve the task set and depends.
	client := buildFig3Client(t)
	doc1, err := ModelToCNX(client, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lifted, err := CNXToModel(doc1)
	if err != nil {
		t.Fatal(err)
	}
	doc2, err := ModelToCNX(lifted, Options{})
	if err != nil {
		t.Fatal(err)
	}
	j1, j2 := &doc1.Client.Jobs[0], &doc2.Client.Jobs[0]
	if len(j1.Tasks) != len(j2.Tasks) {
		t.Fatalf("task count changed: %d -> %d", len(j1.Tasks), len(j2.Tasks))
	}
	for i := range j1.Tasks {
		a, b := j1.Task(j1.Tasks[i].Name), j2.Task(j1.Tasks[i].Name)
		if b == nil {
			t.Fatalf("task %q lost", j1.Tasks[i].Name)
		}
		if a.Class != b.Class || a.Jar != b.Jar {
			t.Errorf("task %q changed: %+v vs %+v", a.Name, a, b)
		}
		ad, bd := a.DependsList(), b.DependsList()
		if len(ad) != len(bd) {
			t.Errorf("task %q depends changed: %v vs %v", a.Name, ad, bd)
		}
	}
}

func TestFromXMIUnnamedPseudostates(t *testing.T) {
	// Pseudostates without names (the common tool export) must get unique
	// names from their ids.
	doc := &xmi.Document{
		ModelName: "M",
		TagDefs:   []xmi.TagDef{{ID: "td1", Name: "class"}},
		Graphs: []*xmi.ActivityGraph{{
			ID: "g1", Name: "j",
			Vertices: []xmi.Vertex{
				{ID: "v1", Kind: xmi.VertexInitial},
				{ID: "v2", Name: "a", Kind: xmi.VertexAction,
					Tagged: []xmi.TaggedValue{{ID: "tv1", TagDefID: "td1", Value: "A"}}},
				{ID: "v3", Kind: xmi.VertexFinal},
			},
			Transitions: []xmi.Transition{
				{ID: "t1", SourceID: "v1", TargetID: "v2"},
				{ID: "t2", SourceID: "v2", TargetID: "v3"},
			},
		}},
	}
	client, err := FromXMI(doc)
	if err != nil {
		t.Fatal(err)
	}
	g := client.Job("j")
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Node("v1") == nil || g.Node("v3") == nil {
		t.Error("pseudostates not named by id")
	}
}

func TestFromXMIDuplicateNames(t *testing.T) {
	doc := &xmi.Document{
		Graphs: []*xmi.ActivityGraph{{
			ID: "g1", Name: "j",
			Vertices: []xmi.Vertex{
				{ID: "v1", Name: "same", Kind: xmi.VertexAction},
				{ID: "same", Name: "same", Kind: xmi.VertexAction},
			},
		}},
	}
	if _, err := FromXMI(doc); err == nil {
		t.Error("duplicate vertex names accepted")
	}
}

func TestToXMIInvalidClient(t *testing.T) {
	if _, err := ToXMI(core.NewClient("empty")); err == nil {
		t.Error("client without jobs accepted")
	}
}

func TestModelToCNXMissingClass(t *testing.T) {
	g, err := core.NewBuilder("j").
		Initial("i").
		Action("a", core.Tags(core.TagJar, "a.jar")). // no class tag
		Final("f").
		Flows("i", "a", "f").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	c := core.NewClient("C")
	if err := c.AddJob(g); err != nil {
		t.Fatal(err)
	}
	if _, err := ModelToCNX(c, Options{}); err == nil {
		t.Error("action state without class accepted")
	}
}

func TestArgTableDrivenExpansion(t *testing.T) {
	g, err := core.NewBuilder("j").
		Initial("i").
		DynamicAction("w", core.TaskTags("w.jar", "W", 100, "RUN_AS_THREAD_IN_TM"), "2", "pair").
		Final("f").
		Flows("i", "w", "f").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	c := core.NewClient("C")
	if err := c.AddJob(g); err != nil {
		t.Fatal(err)
	}
	args := core.ArgTable(map[string][][]task.Param{
		"pair": {
			{{Type: task.TypeString, Value: "left"}},
			{{Type: task.TypeString, Value: "right"}},
		},
	})
	doc, err := ModelToCNX(c, Options{Args: args})
	if err != nil {
		t.Fatal(err)
	}
	job := &doc.Client.Jobs[0]
	if len(job.Tasks) != 2 {
		t.Fatalf("tasks = %d", len(job.Tasks))
	}
	s0, err := job.Tasks[0].Spec()
	if err != nil {
		t.Fatal(err)
	}
	if s0.Params[0].Value != "left" {
		t.Errorf("first invocation param = %v", s0.Params)
	}
}

// TestXMI2CNXDocNeedsNoTextRoundTrip: the document XMI2CNXDoc returns is
// the one a caller used to get by writing it out and parsing the text back
// — field for field (the XML name of the root element aside, which only
// the decoder sets) and spec for spec — for the paper's explicit model
// (Figures 2-3) and for its dynamic one (Figure 5) at 4, 8 and 16
// invocations; and XMI2CNX still writes exactly that document's text.
func TestXMI2CNXDocNeedsNoTextRoundTrip(t *testing.T) {
	dynamic, err := core.NewBuilder("dyn").
		Initial("i").
		Action("split", core.TaskTags("s.jar", "Split", 500, "RUN_AS_THREAD_IN_TM")).
		DynamicAction("worker", core.TaskTags("w.jar", "Worker", 500, "RUN_AS_THREAD_IN_TM"), "*", "rows").
		Action("join", core.TaskTags("j.jar", "Join", 500, "RUN_AS_THREAD_IN_TM")).
		Final("f").
		Flows("i", "split", "worker", "join", "f").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	dyn := core.NewClient("Dyn")
	if err := dyn.AddJob(dynamic); err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		client *core.Client
		opts   Options
		tasks  int
	}{
		"fig3 explicit":   {buildFig3Client(t), Options{Port: 5666}, 7},
		"fig5 dynamic 4":  {dyn, Options{Args: core.FixedArgs(4)}, 6},
		"fig5 dynamic 8":  {dyn, Options{Args: core.FixedArgs(8)}, 10},
		"fig5 dynamic 16": {dyn, Options{Args: core.FixedArgs(16)}, 18},
	} {
		t.Run(name, func(t *testing.T) {
			xdoc, err := ToXMI(tc.client)
			if err != nil {
				t.Fatal(err)
			}
			xmlText, err := xdoc.WriteString()
			if err != nil {
				t.Fatal(err)
			}
			doc, err := XMI2CNXDoc(strings.NewReader(xmlText), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			text, err := doc.EncodeString()
			if err != nil {
				t.Fatal(err)
			}
			if written, err := XMI2CNXString(xmlText, tc.opts); err != nil || written != text {
				t.Errorf("XMI2CNX wrote (err %v)\n%s\nwant the document's own text\n%s", err, written, text)
			}
			parsed, err := cnx.ParseString(text)
			if err != nil {
				t.Fatal(err)
			}
			parsed.XMLName = doc.XMLName
			if !reflect.DeepEqual(doc, parsed) {
				t.Errorf("document differs from its own text parsed back:\n%+v\n%+v", doc, parsed)
			}
			for _, d := range []*cnx.Document{doc, parsed} {
				if err := d.Validate(); err != nil {
					t.Fatal(err)
				}
			}
			direct, err := doc.Client.Jobs[0].Specs()
			if err != nil {
				t.Fatal(err)
			}
			viaText, err := parsed.Client.Jobs[0].Specs()
			if err != nil {
				t.Fatal(err)
			}
			if len(direct) != tc.tasks || !reflect.DeepEqual(direct, viaText) {
				t.Errorf("%d specs compiled directly, want %d, equal to the %d compiled from text", len(direct), tc.tasks, len(viaText))
			}
		})
	}
}
