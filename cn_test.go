// Package cn tests exercise the public API end to end and reproduce, at
// the API level, each figure of the paper.
package cn_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"cn"
	"cn/internal/floyd"
	"cn/internal/workloads"
)

// pubRegistry carries the public-API test task classes.
var pubRegistry = func() *cn.Registry {
	r := cn.NewRegistry()
	r.MustRegister("pub.Echo", func() cn.Task {
		return cn.TaskFunc(func(ctx cn.TaskContext) error {
			return ctx.SendClient([]byte(ctx.TaskName()))
		})
	})
	r.MustRegister("pub.Noop", func() cn.Task {
		return cn.TaskFunc(func(cn.TaskContext) error { return nil })
	})
	floyd.MustRegister(r)
	workloads.MustRegister(r)
	return r
}()

func startPublic(t *testing.T, nodes int) (*cn.Cluster, *cn.Client) {
	t.Helper()
	c, err := cn.StartCluster(cn.ClusterOptions{Nodes: nodes, Registry: pubRegistry, MemoryMB: 16000})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	cl, err := cn.Connect(c, cn.ClientOptions{DiscoveryWindow: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return c, cl
}

func pubCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// echoTags builds tagged values for the pub.Echo class.
func echoTags() cn.TaggedValues {
	return cn.TaskTags("", "pub.Echo", 100, "RUN_AS_THREAD_IN_TM")
}

// TestFig1ComponentInventory reproduces Figure 1: every CN framework
// component exists and cooperates — CN servers on the nodes, the CN API
// factory, JobManager discovery over multicast, TaskManager execution.
func TestFig1ComponentInventory(t *testing.T) {
	c, cl := startPublic(t, 4)
	if got := len(c.Nodes()); got != 4 {
		t.Fatalf("cluster nodes = %d", got)
	}
	// Discovery: all four JobManagers respond to a multicast solicit.
	_, offers, err := cl.Discover(cn.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) != 4 {
		t.Errorf("JobManager offers = %d, want 4", len(offers))
	}
	// Job + Task managers: a trivial job flows through create/start/collate.
	res, err := cn.RunJob(pubCtx(t), cl, "inventory", []*cn.TaskSpec{
		{Name: "t", Class: "pub.Noop", Req: cn.Requirements{MemoryMB: 50, RunModel: cn.RunAsThreadInTM}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Errorf("inventory job failed: %+v", res)
	}
}

// TestFig2DescriptorGolden reproduces Figure 2: the CNX client descriptor
// generated for the five-worker transitive closure job has exactly the
// paper's structure (task names, classes, jars, depends lists, task-req
// blocks, typed params).
func TestFig2DescriptorGolden(t *testing.T) {
	g, err := floyd.BuildModel(5)
	if err != nil {
		t.Fatal(err)
	}
	model := cn.NewClientModel("TransClosure")
	if err := model.AddJob(g); err != nil {
		t.Fatal(err)
	}
	doc, err := cn.ModelToCNX(model, cn.TransformOptions{Port: 5666})
	if err != nil {
		t.Fatal(err)
	}
	out, err := doc.EncodeString()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`class="TransClosure"`,
		`port="5666"`,
		`name="tctask0" jar="tasksplit.jar" class="org.jhpc.cn2.transcloser.TaskSplit"`,
		`name="tctask5" jar="tctask.jar" class="org.jhpc.cn2.trnsclsrtask.TCTask" depends="tctask0"`,
		`name="tctask999" jar="taskjoin.jar" class="org.jhpc.cn2.transcloser.TaskJoin" depends="tctask1,tctask2,tctask3,tctask4,tctask5"`,
		`<memory>1000</memory>`,
		`<runmodel>RUN_AS_THREAD_IN_TM</runmodel>`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("descriptor missing %q\n%s", want, out)
		}
	}
	// The worker's pvalue0 (Figure 4 cross-check): tctask2 carries 2.
	w2 := doc.Client.Jobs[0].Task("tctask2")
	spec, err := w2.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := spec.Params[0].Int(); v != 2 {
		t.Errorf("tctask2 pvalue0 = %d, want 2", v)
	}
}

// TestFig3ExplicitConcurrency reproduces Figure 3: an activity diagram with
// a splitter, five concurrent workers between fork/join pseudostates, and a
// joiner, executed on a live cluster with the split-first/join-last
// ordering the diagram prescribes.
func TestFig3ExplicitConcurrency(t *testing.T) {
	_, cl := startPublic(t, 4)
	b := cn.NewActivity("fig3").
		Initial("initial").
		Action("split", echoTags()).
		Fork("fork")
	var workers []string
	for i := 1; i <= 5; i++ {
		name := "w" + string(rune('0'+i))
		workers = append(workers, name)
		b.Action(name, echoTags())
	}
	g := b.Join("joinbar").
		Action("join", echoTags()).
		Final("final").
		Flows("initial", "split", "fork").
		FanOut("fork", workers...).
		FanIn("joinbar", workers...).
		Flows("joinbar", "join", "final").
		MustBuild()
	model := cn.NewClientModel("Fig3")
	if err := model.AddJob(g); err != nil {
		t.Fatal(err)
	}
	doc, err := cn.ModelToCNX(model, cn.TransformOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Execute via the job API so messages can be observed.
	specs, err := doc.Client.Jobs[0].Specs()
	if err != nil {
		t.Fatal(err)
	}
	job, err := cl.CreateJob("fig3", cn.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		if err := job.CreateTask(s, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := job.Start(); err != nil {
		t.Fatal(err)
	}
	ctx := pubCtx(t)
	var order []string
	for len(order) < 7 {
		from, _, err := job.GetMessage(ctx)
		if err != nil {
			t.Fatal(err)
		}
		order = append(order, from)
	}
	if order[0] != "split" || order[len(order)-1] != "join" {
		t.Errorf("execution order = %v", order)
	}
	res, err := job.Wait(ctx)
	if err != nil || res.Failed {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	// The DOT rendering carries the diagram's pseudostates.
	d := cn.ActivityDOT(g)
	if !strings.Contains(d, "fork") || !strings.Contains(d, "joinbar") {
		t.Error("DOT output missing pseudostates")
	}
}

// TestFig4TaggedValues reproduces Figure 4: the tagged values of worker
// TCTask2 (jar, class, memory, runmodel, ptype0/pvalue0 = 2) survive the
// model -> XMI -> model round trip.
func TestFig4TaggedValues(t *testing.T) {
	g, err := floyd.BuildModel(5)
	if err != nil {
		t.Fatal(err)
	}
	model := cn.NewClientModel("TransClosure")
	if err := model.AddJob(g); err != nil {
		t.Fatal(err)
	}
	xdoc, err := cn.ModelToXMI(model)
	if err != nil {
		t.Fatal(err)
	}
	xmlText, err := xdoc.WriteString()
	if err != nil {
		t.Fatal(err)
	}
	// The serialized XMI carries the Figure 4 values as TaggedValue
	// elements referencing TagDefinitions.
	for _, want := range []string{
		`dataValue="1000"`,
		`dataValue="RUN_AS_THREAD_IN_TM"`,
		`dataValue="tctask.jar"`,
		`dataValue="org.jhpc.cn2.trnsclsrtask.TCTask"`,
		`dataValue="2"`,
	} {
		if !strings.Contains(xmlText, want) {
			t.Errorf("XMI missing %q", want)
		}
	}
	parsed, err := cn.ParseXMI(strings.NewReader(xmlText))
	if err != nil {
		t.Fatal(err)
	}
	model2, err := cn.XMIToModel(parsed)
	if err != nil {
		t.Fatal(err)
	}
	n := model2.Job("transclosure").Node("tctask2")
	if n.Tagged.Get(cn.TagJar) != "tctask.jar" {
		t.Errorf("jar = %q", n.Tagged.Get(cn.TagJar))
	}
	if n.Tagged.Get(cn.TagMemory) != "1000" {
		t.Errorf("memory = %q", n.Tagged.Get(cn.TagMemory))
	}
	params, err := n.Tagged.Params()
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := params[0].Int(); v != 2 {
		t.Errorf("pvalue0 = %d, want 2", v)
	}
}

// TestFig5DynamicInvocation reproduces Figure 5: the dynamic-invocation
// model leaves the worker count open until run time; the run-time argument
// expression then expands it, and the job executes.
func TestFig5DynamicInvocation(t *testing.T) {
	_, cl := startPublic(t, 3)
	g, err := cn.NewActivity("fig5").
		Initial("i").
		DynamicAction("worker", echoTags(), "*", "load").
		Final("f").
		Flows("i", "worker", "f").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	model := cn.NewClientModel("Fig5")
	if err := model.AddJob(g); err != nil {
		t.Fatal(err)
	}
	// "dependent on system load or other external factors": here the
	// run-time expression yields 3 invocations.
	results, err := cn.RunModelOnCluster(pubCtx(t), cl, model,
		cn.TransformOptions{Args: cn.FixedArgs(3)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := results["fig5"]
	if res == nil || res.Failed {
		t.Fatalf("res = %+v", res)
	}
	// Re-lowering with a different multiplicity changes the task count.
	doc5, err := cn.ModelToCNX(model, cn.TransformOptions{Args: cn.FixedArgs(5)})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(doc5.Client.Jobs[0].Tasks); got != 5 {
		t.Errorf("5 invocations produced %d tasks", got)
	}
	// Zero invocations leave the job empty, which a CNX descriptor cannot
	// express — the lowering must reject it rather than emit an invalid
	// document.
	if _, err := cn.ModelToCNX(model, cn.TransformOptions{Args: cn.FixedArgs(0)}); err == nil {
		t.Error("empty expansion produced a descriptor")
	}
}

// TestFig6PipelineEndToEnd reproduces Figure 6: UML model -> XMI export ->
// XMI2CNX -> CNX2Go code generation -> deployment -> execution, each stage
// feeding the next.
func TestFig6PipelineEndToEnd(t *testing.T) {
	_, cl := startPublic(t, 3)
	// Stage 1: the UML model (activity diagram).
	g := cn.NewActivity("fig6").
		Initial("i").
		Action("a", echoTags()).
		Action("b", echoTags()).
		Final("f").
		Flows("i", "a", "b", "f").
		MustBuild()
	model := cn.NewClientModel("Fig6Client")
	if err := model.AddJob(g); err != nil {
		t.Fatal(err)
	}
	// Stage 2: export as XMI.
	xdoc, err := cn.ModelToXMI(model)
	if err != nil {
		t.Fatal(err)
	}
	xmlText, err := xdoc.WriteString()
	if err != nil {
		t.Fatal(err)
	}
	// Stage 3: XMI -> CNX.
	var cnxText strings.Builder
	if err := cn.XMI2CNX(strings.NewReader(xmlText), &cnxText, cn.TransformOptions{}); err != nil {
		t.Fatal(err)
	}
	doc, err := cn.ParseCNX(strings.NewReader(cnxText.String()))
	if err != nil {
		t.Fatal(err)
	}
	// Stage 4: CNX -> Go client program.
	src, err := cn.GenerateClient(doc, cn.GenerateOptions{Source: "fig6.xmi"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(src), `CreateJob("fig6"`) {
		t.Error("generated client missing job creation")
	}
	// Stages 5-6: deploy and execute (the descriptor path, equivalent to
	// running the generated program).
	results, err := cn.RunDescriptor(pubCtx(t), cl, doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res := results["fig6"]; res == nil || res.Failed {
		t.Fatalf("res = %+v", res)
	}
}

// TestFig7XMIRoundTrip reproduces Figure 7: the XMI fragment for TCTask2 —
// an ActionState carrying four TaggedValues that reference TagDefinitions —
// parses and re-serializes without loss through the public API.
func TestFig7XMIRoundTrip(t *testing.T) {
	g, err := floyd.BuildModel(5)
	if err != nil {
		t.Fatal(err)
	}
	model := cn.NewClientModel("TransClosure")
	if err := model.AddJob(g); err != nil {
		t.Fatal(err)
	}
	xdoc, err := cn.ModelToXMI(model)
	if err != nil {
		t.Fatal(err)
	}
	xmlText, err := xdoc.WriteString()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"<UML:ActionState",
		"<UML:TaggedValue",
		"<UML:TaggedValue.type>",
		"<UML:TagDefinition xmi.idref=",
		"<UML:Transition.source>",
		"<UML:Transition.target>",
	} {
		if !strings.Contains(xmlText, want) {
			t.Errorf("XMI missing element %q", want)
		}
	}
	re, err := cn.ParseXMI(strings.NewReader(xmlText))
	if err != nil {
		t.Fatal(err)
	}
	again, err := re.WriteString()
	if err != nil {
		t.Fatal(err)
	}
	if xmlText != again {
		t.Error("XMI write/parse/write is not a fixed point")
	}
}

// TestPublicFloydEndToEnd runs the guiding example through the public API.
func TestPublicFloydEndToEnd(t *testing.T) {
	c, err := cn.StartCluster(cn.ClusterOptions{Nodes: 4, Registry: pubRegistry, MemoryMB: 32000})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl, err := cn.Connect(c, cn.ClientOptions{DiscoveryWindow: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	m := floyd.RandomGraph(24, 0.25, 9, 11)
	got, err := floyd.Run(pubCtx(t), cl, m, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(floyd.Sequential(m)) {
		t.Error("public-API Floyd result differs from sequential baseline")
	}
}

// TestKillNodeThroughPublicAPI exercises failure injection.
func TestKillNodeThroughPublicAPI(t *testing.T) {
	c, cl := startPublic(t, 3)
	nodes := c.Nodes()
	if err := c.KillNode(nodes[2]); err != nil {
		t.Fatal(err)
	}
	if err := c.KillNode(nodes[2]); err == nil {
		t.Error("double kill accepted")
	}
	res, err := cn.RunJob(pubCtx(t), cl, "survivors", []*cn.TaskSpec{
		{Name: "t", Class: "pub.Noop", Req: cn.Requirements{MemoryMB: 50, RunModel: cn.RunAsThreadInTM}},
	}, nil)
	if err != nil || res.Failed {
		t.Fatalf("res=%+v err=%v", res, err)
	}
}

// TestArchivePublicAPI builds and ships an archive through RunJob.
func TestArchivePublicAPI(t *testing.T) {
	_, cl := startPublic(t, 2)
	ar, err := cn.NewArchive("echo.jar", "pub.Echo").Version("1.0").Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := cn.RunJob(pubCtx(t), cl, "archived", []*cn.TaskSpec{
		{Name: "t", Class: "pub.Echo", Archive: "echo.jar",
			Req: cn.Requirements{MemoryMB: 50, RunModel: cn.RunAsThreadInTM}},
	}, map[string]*cn.Archive{"echo.jar": ar})
	if err != nil || res.Failed {
		t.Fatalf("res=%+v err=%v", res, err)
	}
}

// TestRunJobUnplaceableJobIsNotLeaked: a job whose tasks fit no node fails
// at CreateTasks. RunJob cancels it and drops the handle, so the managers
// count no active job afterwards and the client routes to none — forty such
// failures do not wedge two managers of sixteen slots each, and a job that
// fits still runs.
func TestRunJobUnplaceableJobIsNotLeaked(t *testing.T) {
	_, cl := startPublic(t, 2)
	huge := []*cn.TaskSpec{
		{Name: "t", Class: "pub.Noop", Req: cn.Requirements{MemoryMB: 1 << 20, RunModel: cn.RunAsThreadInTM}},
	}
	for i := 0; i < 40; i++ {
		if _, err := cn.RunJob(pubCtx(t), cl, "huge", huge, nil); err == nil || !strings.Contains(err.Error(), "placement") {
			t.Fatalf("run %d: err %v, want the placement failure", i, err)
		}
		_, offers, err := cl.Discover(cn.JobRequirements{})
		if err != nil || len(offers) != 2 {
			t.Fatalf("run %d: %d JobManager offers, %v", i, len(offers), err)
		}
		for _, o := range offers {
			if o.ActiveJobs != 0 {
				t.Fatalf("run %d: %s counts %d active jobs after RunJob returned", i, o.Node, o.ActiveJobs)
			}
		}
		if n := cl.OpenJobs(); n != 0 {
			t.Fatalf("run %d: the client still routes to %d job handles", i, n)
		}
	}
	res, err := cn.RunJob(pubCtx(t), cl, "fits", []*cn.TaskSpec{
		{Name: "t", Class: "pub.Noop", Req: cn.Requirements{MemoryMB: 50, RunModel: cn.RunAsThreadInTM}},
	}, nil)
	if err != nil || res.Failed {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	if n := cl.OpenJobs(); n != 0 {
		t.Errorf("the client routes to %d job handles after a finished RunJob", n)
	}
}
