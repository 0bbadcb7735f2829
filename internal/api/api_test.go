package api_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cn/internal/api"
	"cn/internal/archive"
	"cn/internal/cluster"
	"cn/internal/discovery"
	"cn/internal/msg"
	"cn/internal/protocol"
	"cn/internal/task"
	"cn/internal/transport"
)

// testRegistry holds the task classes the integration suite deploys.
var testRegistry = func() *task.Registry {
	r := task.NewRegistry()
	r.MustRegister("test.Noop", func() task.Task {
		return task.Func(func(task.Context) error { return nil })
	})
	r.MustRegister("test.EchoName", func() task.Task {
		return task.Func(func(ctx task.Context) error {
			return ctx.SendClient([]byte(ctx.TaskName()))
		})
	})
	r.MustRegister("test.Fail", func() task.Task {
		return task.Func(func(ctx task.Context) error {
			return errors.New("deliberate failure")
		})
	})
	r.MustRegister("test.Panic", func() task.Task {
		return task.Func(func(ctx task.Context) error {
			panic("deliberate panic")
		})
	})
	r.MustRegister("test.Pinger", func() task.Task {
		return task.Func(func(ctx task.Context) error {
			peer, err := task.StringParam(ctx.Params(), 0)
			if err != nil {
				return err
			}
			if err := ctx.Send(peer, []byte("ping")); err != nil {
				return err
			}
			from, data, err := ctx.Recv()
			if err != nil {
				return err
			}
			return ctx.SendClient([]byte(fmt.Sprintf("got %s from %s", data, from)))
		})
	})
	r.MustRegister("test.Ponger", func() task.Task {
		return task.Func(func(ctx task.Context) error {
			from, data, err := ctx.Recv()
			if err != nil {
				return err
			}
			if string(data) != "ping" {
				return fmt.Errorf("unexpected payload %q", data)
			}
			return ctx.Send(from, []byte("pong"))
		})
	})
	r.MustRegister("test.Broadcaster", func() task.Task {
		return task.Func(func(ctx task.Context) error {
			return ctx.Broadcast([]byte("hello-all"))
		})
	})
	r.MustRegister("test.BroadcastListener", func() task.Task {
		return task.Func(func(ctx task.Context) error {
			from, data, err := ctx.Recv()
			if err != nil {
				return err
			}
			return ctx.SendClient([]byte(ctx.TaskName() + " heard " + string(data) + " from " + from))
		})
	})
	r.MustRegister("test.EchoClient", func() task.Task {
		return task.Func(func(ctx task.Context) error {
			_, data, err := ctx.Recv()
			if err != nil {
				return err
			}
			return ctx.SendClient(append([]byte("echo:"), data...))
		})
	})
	r.MustRegister("test.Sleeper", func() task.Task {
		return task.Func(func(ctx task.Context) error {
			for !ctx.Done() {
				time.Sleep(time.Millisecond)
			}
			return nil
		})
	})
	r.MustRegister("test.LogAndRun", func() task.Task {
		return task.Func(func(ctx task.Context) error {
			ctx.Logf("running on %s with %d params", ctx.NodeName(), len(ctx.Params()))
			if ctx.JobID() == "" {
				return errors.New("empty job id")
			}
			return ctx.SendClient([]byte(ctx.TaskName()))
		})
	})
	return r
}()

// start boots a cluster plus an initialized client.
func start(t *testing.T, nodes int) (*cluster.Cluster, *api.Client) {
	t.Helper()
	c, err := cluster.Start(cluster.Config{Nodes: nodes, Registry: testRegistry})
	if err != nil {
		t.Fatalf("cluster start: %v", err)
	}
	t.Cleanup(c.Stop)
	cl, err := api.Initialize(c.Network(), api.Options{DiscoveryWindow: 50 * time.Millisecond})
	if err != nil {
		t.Fatalf("api initialize: %v", err)
	}
	t.Cleanup(func() { cl.Close() })
	return c, cl
}

func spec(name, class string, deps []string, params ...task.Param) *task.Spec {
	return &task.Spec{
		Name:      name,
		Class:     class,
		DependsOn: deps,
		Params:    params,
		Req:       task.Requirements{MemoryMB: 100, RunModel: task.RunAsThreadInTM},
	}
}

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestSingleTaskJobCompletes(t *testing.T) {
	_, cl := start(t, 2)
	j, err := cl.CreateJob("single", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.CreateTask(spec("only", "test.Noop", nil), nil); err != nil {
		t.Fatal(err)
	}
	res, err := j.Run(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Errorf("job failed: %+v", res)
	}
}

func TestDependencyOrdering(t *testing.T) {
	_, cl := start(t, 3)
	j, err := cl.CreateJob("chain", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*task.Spec{
		spec("a", "test.EchoName", nil),
		spec("b", "test.EchoName", []string{"a"}),
		spec("c", "test.EchoName", []string{"b"}),
	} {
		if err := j.CreateTask(s, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Start(); err != nil {
		t.Fatal(err)
	}
	var order []string
	ctx := ctxT(t)
	for len(order) < 3 {
		from, _, err := j.GetMessage(ctx)
		if err != nil {
			t.Fatal(err)
		}
		order = append(order, from)
	}
	want := []string{"a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order = %v, want %v", order, want)
		}
	}
	res, err := j.Wait(ctx)
	if err != nil || res.Failed {
		t.Fatalf("res=%+v err=%v", res, err)
	}
}

func TestFanOutFanIn(t *testing.T) {
	_, cl := start(t, 4)
	j, err := cl.CreateJob("fan", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.CreateTask(spec("split", "test.EchoName", nil), nil); err != nil {
		t.Fatal(err)
	}
	workers := []string{"w1", "w2", "w3", "w4", "w5"}
	for _, w := range workers {
		if err := j.CreateTask(spec(w, "test.EchoName", []string{"split"}), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.CreateTask(spec("join", "test.EchoName", workers), nil); err != nil {
		t.Fatal(err)
	}
	if err := j.Start(); err != nil {
		t.Fatal(err)
	}
	ctx := ctxT(t)
	seen := make(map[string]int)
	var sequence []string
	for i := 0; i < 7; i++ {
		from, _, err := j.GetMessage(ctx)
		if err != nil {
			t.Fatal(err)
		}
		seen[from]++
		sequence = append(sequence, from)
	}
	if sequence[0] != "split" {
		t.Errorf("split did not run first: %v", sequence)
	}
	if sequence[6] != "join" {
		t.Errorf("join did not run last: %v", sequence)
	}
	for _, w := range workers {
		if seen[w] != 1 {
			t.Errorf("worker %s ran %d times", w, seen[w])
		}
	}
	res, err := j.Wait(ctx)
	if err != nil || res.Failed {
		t.Fatalf("res=%+v err=%v", res, err)
	}
}

func TestTaskFailureFailsJob(t *testing.T) {
	_, cl := start(t, 2)
	j, err := cl.CreateJob("failing", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.CreateTask(spec("boom", "test.Fail", nil), nil); err != nil {
		t.Fatal(err)
	}
	if err := j.CreateTask(spec("after", "test.Noop", []string{"boom"}), nil); err != nil {
		t.Fatal(err)
	}
	res, err := j.Run(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed {
		t.Fatal("job should have failed")
	}
	if !strings.Contains(res.TaskErrs["boom"], "deliberate failure") {
		t.Errorf("TaskErrs = %v", res.TaskErrs)
	}
}

func TestPanicConfined(t *testing.T) {
	_, cl := start(t, 2)
	j, err := cl.CreateJob("panicky", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.CreateTask(spec("kaboom", "test.Panic", nil), nil); err != nil {
		t.Fatal(err)
	}
	res, err := j.Run(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed || !strings.Contains(res.TaskErrs["kaboom"], "panic") {
		t.Errorf("res = %+v", res)
	}
	// The cluster must still work after a task panicked.
	j2, err := cl.CreateJob("after-panic", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.CreateTask(spec("fine", "test.Noop", nil), nil); err != nil {
		t.Fatal(err)
	}
	res2, err := j2.Run(ctxT(t))
	if err != nil || res2.Failed {
		t.Fatalf("post-panic job: res=%+v err=%v", res2, err)
	}
}

func TestIntertaskMessaging(t *testing.T) {
	_, cl := start(t, 3)
	j, err := cl.CreateJob("pingpong", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.CreateTask(spec("ponger", "test.Ponger", nil), nil); err != nil {
		t.Fatal(err)
	}
	if err := j.CreateTask(spec("pinger", "test.Pinger", nil,
		task.Param{Type: task.TypeString, Value: "ponger"}), nil); err != nil {
		t.Fatal(err)
	}
	if err := j.Start(); err != nil {
		t.Fatal(err)
	}
	ctx := ctxT(t)
	from, data, err := j.GetMessage(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if from != "pinger" || string(data) != "got pong from ponger" {
		t.Errorf("message = %q from %s", data, from)
	}
	res, err := j.Wait(ctx)
	if err != nil || res.Failed {
		t.Fatalf("res=%+v err=%v", res, err)
	}
}

func TestBroadcast(t *testing.T) {
	_, cl := start(t, 3)
	j, err := cl.CreateJob("bcast", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	listeners := []string{"l1", "l2", "l3"}
	for _, l := range listeners {
		if err := j.CreateTask(spec(l, "test.BroadcastListener", nil), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.CreateTask(spec("caster", "test.Broadcaster", nil), nil); err != nil {
		t.Fatal(err)
	}
	if err := j.Start(); err != nil {
		t.Fatal(err)
	}
	ctx := ctxT(t)
	heard := make(map[string]bool)
	for i := 0; i < len(listeners); i++ {
		from, data, err := j.GetMessage(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), "heard hello-all from caster") {
			t.Errorf("listener message = %q", data)
		}
		heard[from] = true
	}
	for _, l := range listeners {
		if !heard[l] {
			t.Errorf("listener %s never heard the broadcast", l)
		}
	}
	res, err := j.Wait(ctx)
	if err != nil || res.Failed {
		t.Fatalf("res=%+v err=%v", res, err)
	}
}

func TestClientSendMessage(t *testing.T) {
	_, cl := start(t, 2)
	j, err := cl.CreateJob("echo", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.CreateTask(spec("echoer", "test.EchoClient", nil), nil); err != nil {
		t.Fatal(err)
	}
	if err := j.Start(); err != nil {
		t.Fatal(err)
	}
	if err := j.SendMessage("echoer", []byte("hello task")); err != nil {
		t.Fatal(err)
	}
	ctx := ctxT(t)
	from, data, err := j.GetMessage(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if from != "echoer" || string(data) != "echo:hello task" {
		t.Errorf("echo = %q from %s", data, from)
	}
	if _, err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestCancelJob(t *testing.T) {
	_, cl := start(t, 2)
	j, err := cl.CreateJob("cancel-me", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.CreateTask(spec("sleepy", "test.Sleeper", nil), nil); err != nil {
		t.Fatal(err)
	}
	if err := j.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if err := j.Cancel("test over"); err != nil {
		t.Fatal(err)
	}
	res, err := j.Wait(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed {
		t.Error("cancelled job should report failed")
	}
}

func TestLifecycleEvents(t *testing.T) {
	_, cl := start(t, 2)
	j, err := cl.CreateJob("events", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.CreateTask(spec("only", "test.Noop", nil), nil); err != nil {
		t.Fatal(err)
	}
	if err := j.Start(); err != nil {
		t.Fatal(err)
	}
	ctx := ctxT(t)
	ev1, err := j.GetEvent(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ev2, err := j.GetEvent(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ev1.Task != "only" || ev2.Task != "only" {
		t.Errorf("events = %+v, %+v", ev1, ev2)
	}
	if ev1.Kind.String() != "TASK_STARTED" || ev2.Kind.String() != "TASK_COMPLETED" {
		t.Errorf("event kinds = %v, %v", ev1.Kind, ev2.Kind)
	}
}

func TestArchiveUploadAndVerification(t *testing.T) {
	_, cl := start(t, 2)
	ar, err := archive.NewBuilder("noop.jar", "test.Noop").
		AddFile("doc.txt", []byte("docs")).Build()
	if err != nil {
		t.Fatal(err)
	}
	j, err := cl.CreateJob("with-archive", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.CreateTask(spec("pkg", "test.Noop", nil), ar); err != nil {
		t.Fatal(err)
	}
	res, err := j.Run(ctxT(t))
	if err != nil || res.Failed {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	// A manifest class mismatch must be rejected at placement time.
	bad, err := archive.NewBuilder("bad.jar", "test.SomethingElse").Build()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := cl.CreateJob("bad-archive", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.CreateTask(spec("pkg", "test.Noop", nil), bad); err == nil {
		t.Error("mismatched archive accepted")
	}
}

func TestUnknownClassRejected(t *testing.T) {
	_, cl := start(t, 2)
	j, err := cl.CreateJob("unknown-class", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.CreateTask(spec("ghost", "test.NotRegistered", nil), nil); err == nil {
		t.Error("unknown class accepted")
	}
}

func TestInsufficientMemoryRejected(t *testing.T) {
	_, cl := start(t, 2)
	j, err := cl.CreateJob("oom", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	s := spec("big", "test.Noop", nil)
	s.Req.MemoryMB = 1 << 20 // 1 TB: no node offers
	if err := j.CreateTask(s, nil); err == nil {
		t.Error("oversized task accepted")
	}
}

func TestDiscoveryPolicies(t *testing.T) {
	c, cl := start(t, 4)
	for _, policy := range []discovery.Policy{
		discovery.FirstResponder{},
		discovery.BestFit{},
		discovery.LeastLoaded{},
		discovery.NewRandom(7),
	} {
		offer, offers, err := cl.DiscoverWith(policy, protocol.JobRequirements{})
		if err != nil {
			t.Fatalf("%s: %v", policy.Name(), err)
		}
		if offer.Node == "" {
			t.Errorf("%s: empty selection", policy.Name())
		}
		if _, first := policy.(discovery.FirstResponder); !first && len(offers) != len(c.Nodes()) {
			t.Errorf("%s: %d offers from %d nodes", policy.Name(), len(offers), len(c.Nodes()))
		}
	}
}

func TestDiscoveryNoOffers(t *testing.T) {
	_, cl := start(t, 2)
	// Demand more memory than any node has.
	_, _, err := cl.Discover(protocol.JobRequirements{MinMemoryMB: 1 << 30})
	if !errors.Is(err, discovery.ErrNoOffers) {
		t.Errorf("Discover = %v, want ErrNoOffers", err)
	}
}

// silentManager attaches a stand-in JobManager "jm" to a fresh in-memory
// fabric. It ignores the first `silent` discovery rounds it hears and answers
// every later one with an offer. rounds counts the solicitations heard.
func silentManager(t *testing.T, silent int32) (*api.Client, *atomic.Int32) {
	t.Helper()
	net := transport.NewIdealNetwork()
	t.Cleanup(func() { net.Close() })
	rounds := new(atomic.Int32)
	var ep transport.Endpoint
	ep, err := net.Attach("jm", func(m *msg.Message) {
		var r *msg.Message
		switch m.Kind {
		case msg.KindJobManagerSolicit:
			if rounds.Add(1) <= silent {
				return
			}
			r = protocol.Reply(m, msg.KindJobManagerOffer, protocol.JMOffer{Node: "jm", FreeMemoryMB: 1000})
		default:
			return
		}
		if err := ep.Send(m.From.Node, r); err != nil {
			t.Errorf("reply %s: %v", r.Kind, err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Join(protocol.GroupJobManagers); err != nil {
		t.Fatal(err)
	}
	cl, err := api.Initialize(net, api.Options{DiscoveryWindow: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl, rounds
}

// TestCreateJobRetriesSilentDiscoveryOnce: a discovery round that collects
// no offer is run once more. The second round's answer binds the job; two
// silent rounds fail the create with ErrNoOffers, and there is no third.
func TestCreateJobRetriesSilentDiscoveryOnce(t *testing.T) {
	cl, rounds := silentManager(t, 1)
	j, err := cl.CreateJob("second-round", protocol.JobRequirements{})
	if err != nil {
		t.Fatalf("CreateJob after one silent round: %v", err)
	}
	if !strings.HasPrefix(j.ID, cl.Node()+".") || j.JMNode != "jm" || rounds.Load() != 2 {
		t.Errorf("job %q on %q after %d rounds, want one of %s's on jm after 2", j.ID, j.JMNode, rounds.Load(), cl.Node())
	}

	cl, rounds = silentManager(t, 2)
	if _, err := cl.CreateJob("never", protocol.JobRequirements{}); !errors.Is(err, discovery.ErrNoOffers) {
		t.Errorf("CreateJob after two silent rounds = %v, want ErrNoOffers", err)
	}
	if got := rounds.Load(); got != 2 {
		t.Errorf("%d discovery rounds, want 2", got)
	}
}

// TestDiscoveryRefusedRoundEndsEarly: managers that cannot take a job —
// here each at its one-job cap — answer with a refusal instead of staying
// silent, so a round in which every manager refuses ends as soon as all
// have answered, long before the window, with ErrRefused rather than
// ErrNoOffers; and CreateJob does not run such a round a second time.
func TestDiscoveryRefusedRoundEndsEarly(t *testing.T) {
	c, err := cluster.Start(cluster.Config{Nodes: 2, MaxJobs: 1, Registry: testRegistry})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	const window = 3 * time.Second
	cl, err := api.Initialize(c.Network(), api.Options{DiscoveryWindow: window})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	for _, node := range c.Nodes() {
		j, err := cl.CreateJobOn(node, "fill", protocol.JobRequirements{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.CreateTasks([]*task.Spec{spec("fill", "test.Noop", nil)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	_, _, err = cl.Discover(protocol.JobRequirements{})
	if !errors.Is(err, discovery.ErrRefused) || errors.Is(err, discovery.ErrNoOffers) {
		t.Errorf("Discover with every manager full = %v, want ErrRefused", err)
	}
	if took := time.Since(start); took > window/2 {
		t.Errorf("a round of refusals took %v of a %v window", took, window)
	}

	cl, rounds := refusingManager(t)
	if _, err := cl.CreateJob("refused", protocol.JobRequirements{}); !errors.Is(err, discovery.ErrRefused) {
		t.Errorf("CreateJob against a refusing manager = %v, want ErrRefused", err)
	}
	if got := rounds.Load(); got != 1 {
		t.Errorf("%d discovery rounds for a refusal, want 1", got)
	}
}

// refusingManager attaches a stand-in JobManager that refuses every
// discovery round it hears and counts them.
func refusingManager(t *testing.T) (*api.Client, *atomic.Int32) {
	t.Helper()
	net := transport.NewIdealNetwork()
	t.Cleanup(func() { net.Close() })
	rounds := new(atomic.Int32)
	var ep transport.Endpoint
	ep, err := net.Attach("jm", func(m *msg.Message) {
		if m.Kind != msg.KindJobManagerSolicit {
			return
		}
		rounds.Add(1)
		if err := ep.Send(m.From.Node, protocol.Reply(m, msg.KindJobManagerOffer,
			protocol.JMOffer{Node: "jm", Refused: "job manager at capacity"})); err != nil {
			t.Errorf("refuse: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Join(protocol.GroupJobManagers); err != nil {
		t.Fatal(err)
	}
	cl, err := api.Initialize(net, api.Options{DiscoveryWindow: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl, rounds
}

func TestConcurrentJobs(t *testing.T) {
	_, cl := start(t, 4)
	const jobs = 6
	var wg sync.WaitGroup
	errs := make([]error, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, err := cl.CreateJob(fmt.Sprintf("conc%d", i), protocol.JobRequirements{})
			if err != nil {
				errs[i] = err
				return
			}
			for _, s := range []*task.Spec{
				spec("a", "test.Noop", nil),
				spec("b", "test.Noop", []string{"a"}),
			} {
				if err := j.CreateTask(s, nil); err != nil {
					errs[i] = err
					return
				}
			}
			res, err := j.Run(ctxT(t))
			if err != nil {
				errs[i] = err
				return
			}
			if res.Failed {
				errs[i] = fmt.Errorf("job %d failed: %+v", i, res)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("job %d: %v", i, err)
		}
	}
}

func TestTCPTransportSmoke(t *testing.T) {
	c, err := cluster.Start(cluster.Config{
		Nodes:     2,
		Transport: cluster.TransportTCP,
		Registry:  testRegistry,
	})
	if err != nil {
		t.Fatalf("tcp cluster: %v", err)
	}
	defer c.Stop()
	cl, err := api.Initialize(c.Network(), api.Options{DiscoveryWindow: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	j, err := cl.CreateJob("tcp", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.CreateTask(spec("a", "test.EchoName", nil), nil); err != nil {
		t.Fatal(err)
	}
	if err := j.Start(); err != nil {
		t.Fatal(err)
	}
	from, _, err := j.GetMessage(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	if from != "a" {
		t.Errorf("from = %q", from)
	}
	res, err := j.Wait(ctxT(t))
	if err != nil || res.Failed {
		t.Fatalf("res=%+v err=%v", res, err)
	}
}

func TestLossyNetworkStillCompletes(t *testing.T) {
	// Low loss plus protocol retries: the job should still finish. The CN
	// protocol's request/response calls time out and the test accepts
	// either success or a placement error, but never a hang.
	c, err := cluster.Start(cluster.Config{
		Nodes:    3,
		Registry: testRegistry,
		Latency:  100 * time.Microsecond,
		Jitter:   200 * time.Microsecond,
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	cl, err := api.Initialize(c.Network(), api.Options{DiscoveryWindow: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	j, err := cl.CreateJob("jittery", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.CreateTask(spec("a", "test.Noop", nil), nil); err != nil {
		t.Fatal(err)
	}
	res, err := j.Run(ctxT(t))
	if err != nil || res.Failed {
		t.Fatalf("res=%+v err=%v", res, err)
	}
}

func TestStartTwiceRejected(t *testing.T) {
	_, cl := start(t, 2)
	j, err := cl.CreateJob("twice", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.CreateTask(spec("a", "test.Noop", nil), nil); err != nil {
		t.Fatal(err)
	}
	if err := j.Start(); err != nil {
		t.Fatal(err)
	}
	if err := j.Start(); err == nil {
		t.Error("second Start accepted")
	}
}

func TestDuplicateTaskRejected(t *testing.T) {
	_, cl := start(t, 2)
	j, err := cl.CreateJob("dup", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.CreateTask(spec("a", "test.Noop", nil), nil); err != nil {
		t.Fatal(err)
	}
	if err := j.CreateTask(spec("a", "test.Noop", nil), nil); err == nil {
		t.Error("duplicate task accepted")
	}
}

func TestKillNodeFailsPlacement(t *testing.T) {
	c, cl := start(t, 2)
	// Kill one node; the survivor still hosts jobs.
	if err := c.KillNode(c.Nodes()[1]); err != nil {
		t.Fatal(err)
	}
	j, err := cl.CreateJob("survivor", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.CreateTask(spec("a", "test.Noop", nil), nil); err != nil {
		t.Fatal(err)
	}
	res, err := j.Run(ctxT(t))
	if err != nil || res.Failed {
		t.Fatalf("res=%+v err=%v", res, err)
	}
}

func TestContextAccessors(t *testing.T) {
	_, cl := start(t, 2)
	j, err := cl.CreateJob("ctx", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.CreateTask(spec("lr", "test.LogAndRun", nil,
		task.Param{Type: task.TypeString, Value: "x"}), nil); err != nil {
		t.Fatal(err)
	}
	if err := j.Start(); err != nil {
		t.Fatal(err)
	}
	from, _, err := j.GetMessage(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	if from != "lr" {
		t.Errorf("from = %q", from)
	}
}

func TestCreateTasksBatch(t *testing.T) {
	c, cl := start(t, 3)
	ar, err := archive.NewBuilder("batch.jar", "test.EchoName").
		AddFile("data.bin", []byte(strings.Repeat("x", 4096))).Build()
	if err != nil {
		t.Fatal(err)
	}
	j, err := cl.CreateJob("batch", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	var specs []*task.Spec
	for i := 0; i < 8; i++ {
		s := spec(fmt.Sprintf("t%d", i), "test.EchoName", nil)
		s.Archive = ar.Name
		specs = append(specs, s)
	}
	placements, err := j.CreateTasks(specs, map[string]*archive.Archive{ar.Name: ar})
	if err != nil {
		t.Fatal(err)
	}
	if len(placements) != len(specs) {
		t.Fatalf("placements = %v", placements)
	}
	for name, node := range placements {
		if node == "" {
			t.Errorf("task %s placed nowhere", name)
		}
	}
	if got := j.Progress().Tasks; got != len(specs) {
		t.Errorf("progress tasks = %d, want %d", got, len(specs))
	}
	// Batch admission costs one solicitation round, and the shared
	// archive travels at most once per node.
	if st := c.PlacementStats(); st.SolicitRounds > 2 {
		t.Errorf("solicit rounds = %d for one batch, want <= 2", st.SolicitRounds)
	}
	if tr := c.BlobTransfers(); tr < 1 || tr > 3 {
		t.Errorf("blob transfers = %d, want between 1 and node count", tr)
	}
	res, err := j.Run(ctxT(t))
	if err != nil || res.Failed {
		t.Fatalf("res=%+v err=%v", res, err)
	}
}

func TestCreateTasksEmptyAndInvalid(t *testing.T) {
	_, cl := start(t, 2)
	j, err := cl.CreateJob("empty-batch", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.CreateTasks(nil, nil); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := j.CreateTasks([]*task.Spec{{Name: "", Class: "test.Noop"}}, nil); err == nil {
		t.Error("invalid spec accepted")
	}
	// A batch with a duplicate task name is rejected atomically.
	dup := []*task.Spec{spec("same", "test.Noop", nil), spec("same", "test.Noop", nil)}
	if _, err := j.CreateTasks(dup, nil); err == nil {
		t.Error("duplicate-name batch accepted")
	}
}

func TestFailedBatchReleasesReservations(t *testing.T) {
	// A batch that cannot be fully placed must not leak the memory its
	// accepted tasks reserved on TaskManagers.
	c, err := cluster.Start(cluster.Config{Nodes: 1, MemoryMB: 500, Registry: testRegistry})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	cl, err := api.Initialize(c.Network(), api.Options{DiscoveryWindow: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	j, err := cl.CreateJob("partial", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	big := func(name string) *task.Spec {
		s := spec(name, "test.Noop", nil)
		s.Req.MemoryMB = 400 // two of these cannot share the 500 MB node
		return s
	}
	if _, err := j.CreateTasks([]*task.Spec{big("a"), big("b")}, nil); err == nil {
		t.Fatal("oversubscribed batch accepted")
	}
	tm := c.Server(c.Nodes()[0]).TaskManager()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && tm.FreeMemoryMB() != 500 {
		time.Sleep(5 * time.Millisecond)
	}
	if got := tm.FreeMemoryMB(); got != 500 {
		t.Errorf("free = %d MB after failed batch, want 500 (reservation released)", got)
	}
}

func TestCreateTaskShipsArchiveDespiteNameMismatch(t *testing.T) {
	// An explicitly passed archive must reach the node even when the
	// spec's Archive field was preset to a different name.
	_, cl := start(t, 2)
	ar, err := archive.NewBuilder("real.jar", "test.Noop").Build()
	if err != nil {
		t.Fatal(err)
	}
	j, err := cl.CreateJob("mismatch", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	s := spec("pkg", "test.Noop", nil)
	s.Archive = "alias.jar" // preset, differs from ar.Name
	if err := j.CreateTask(s, ar); err != nil {
		t.Fatal(err)
	}
	res, err := j.Run(ctxT(t))
	if err != nil || res.Failed {
		t.Fatalf("res=%+v err=%v", res, err)
	}
}

// TestReleaseDropsTheHandle: a released job leaves the client's routing
// table and gives up its queued messages and events, while its result and
// counts stay readable; releasing twice, or before the job ran, is harmless.
func TestReleaseDropsTheHandle(t *testing.T) {
	_, cl := start(t, 2)
	j, err := cl.CreateJob("released", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.CreateTask(spec("t", "test.LogAndRun", nil), nil); err != nil {
		t.Fatal(err)
	}
	ctx := ctxT(t)
	res, err := j.Run(ctx)
	if err != nil || res.Failed {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	if n := cl.OpenJobs(); n != 1 {
		t.Fatalf("OpenJobs = %d with one unreleased job", n)
	}
	j.Release()
	j.Release()
	if n := cl.OpenJobs(); n != 0 {
		t.Errorf("OpenJobs = %d after Release", n)
	}
	if _, _, err := j.GetMessage(ctx); !errors.Is(err, msg.ErrClosed) {
		t.Errorf("GetMessage after Release: %v, want the closed mailbox", err)
	}
	if _, err := j.GetEvent(ctx); !errors.Is(err, msg.ErrClosed) {
		t.Errorf("GetEvent after Release: %v, want the closed mailbox", err)
	}
	again, err := j.Wait(ctx)
	if err != nil || again != res {
		t.Errorf("Wait after Release = %+v, %v; want the same result", again, err)
	}
	if p := j.Progress(); p.Tasks != 1 || p.Completed != 1 {
		t.Errorf("Progress after Release = %+v", p)
	}

	unstarted, err := cl.CreateJob("never-run", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	unstarted.Release()
	if n := cl.OpenJobs(); n != 0 {
		t.Errorf("OpenJobs = %d after releasing an unstarted job", n)
	}
}
