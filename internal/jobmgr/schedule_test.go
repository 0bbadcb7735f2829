package jobmgr

import (
	"testing"

	"cn/internal/protocol"
	"cn/internal/task"
)

func specs(t *testing.T, defs ...[2]string) []*task.Spec {
	t.Helper()
	out := make([]*task.Spec, 0, len(defs))
	for _, d := range defs {
		s := &task.Spec{Name: d[0], Class: "c.X", Req: task.DefaultRequirements()}
		if d[1] != "" {
			for _, dep := range splitComma(d[1]) {
				s.DependsOn = append(s.DependsOn, dep)
			}
		}
		out = append(out, s)
	}
	return out
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}

func TestScheduleLinearChain(t *testing.T) {
	s, err := newSchedule(specs(t, [2]string{"a", ""}, [2]string{"b", "a"}, [2]string{"c", "b"}))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Ready(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("Ready = %v", got)
	}
	if err := s.MarkRunning("a"); err != nil {
		t.Fatal(err)
	}
	newly, err := s.Complete("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(newly) != 1 || newly[0] != "b" {
		t.Fatalf("newly = %v", newly)
	}
	if err := s.MarkRunning("b"); err != nil {
		t.Fatal(err)
	}
	newly, err = s.Complete("b")
	if err != nil {
		t.Fatal(err)
	}
	if len(newly) != 1 || newly[0] != "c" {
		t.Fatalf("newly = %v", newly)
	}
	if s.Done() {
		t.Error("Done before c finished")
	}
	if err := s.MarkRunning("c"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Complete("c"); err != nil {
		t.Fatal(err)
	}
	if !s.Done() || s.Failed() {
		t.Errorf("Done=%v Failed=%v", s.Done(), s.Failed())
	}
}

func TestScheduleFanOutFanIn(t *testing.T) {
	s, err := newSchedule(specs(t,
		[2]string{"split", ""},
		[2]string{"w1", "split"},
		[2]string{"w2", "split"},
		[2]string{"w3", "split"},
		[2]string{"join", "w1,w2,w3"},
	))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.MarkRunning("split"); err != nil {
		t.Fatal(err)
	}
	newly, err := s.Complete("split")
	if err != nil {
		t.Fatal(err)
	}
	if len(newly) != 3 {
		t.Fatalf("newly after split = %v", newly)
	}
	for _, w := range newly {
		if err := s.MarkRunning(w); err != nil {
			t.Fatal(err)
		}
	}
	// Join only becomes ready after the last worker.
	for i, w := range []string{"w1", "w2", "w3"} {
		newly, err := s.Complete(w)
		if err != nil {
			t.Fatal(err)
		}
		if i < 2 && len(newly) != 0 {
			t.Errorf("join ready early after %s: %v", w, newly)
		}
		if i == 2 && (len(newly) != 1 || newly[0] != "join") {
			t.Errorf("join not ready after last worker: %v", newly)
		}
	}
}

func TestScheduleFailCancelsRest(t *testing.T) {
	s, err := newSchedule(specs(t,
		[2]string{"a", ""},
		[2]string{"b", "a"},
		[2]string{"c", "b"},
	))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.MarkRunning("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Fail("a"); err != nil {
		t.Fatal(err)
	}
	if !s.Failed() || !s.Done() {
		t.Errorf("Failed=%v Done=%v", s.Failed(), s.Done())
	}
	if s.Status("b") != StatusCancelled || s.Status("c") != StatusCancelled {
		t.Errorf("b=%v c=%v", s.Status("b"), s.Status("c"))
	}
}

func TestScheduleFailWithRunningSibling(t *testing.T) {
	s, err := newSchedule(specs(t,
		[2]string{"w1", ""},
		[2]string{"w2", ""},
	))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.MarkRunning("w1"); err != nil {
		t.Fatal(err)
	}
	if err := s.MarkRunning("w2"); err != nil {
		t.Fatal(err)
	}
	if err := s.Fail("w1"); err != nil {
		t.Fatal(err)
	}
	// w2 is still running; the schedule is failed but not yet done.
	if !s.Failed() {
		t.Error("not failed")
	}
	if s.Done() {
		t.Error("done while w2 running")
	}
	if _, err := s.Complete("w2"); err != nil {
		t.Fatal(err)
	}
	if !s.Done() {
		t.Error("not done after w2 completes")
	}
}

func TestScheduleErrors(t *testing.T) {
	if _, err := newSchedule(specs(t, [2]string{"a", ""}, [2]string{"a", ""})); err == nil {
		t.Error("duplicate task accepted")
	}
	if _, err := newSchedule(specs(t, [2]string{"a", "ghost"})); err == nil {
		t.Error("unknown dependency accepted")
	}
	s, err := newSchedule(specs(t, [2]string{"a", ""}, [2]string{"b", "a"}))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.MarkRunning("b"); err == nil {
		t.Error("MarkRunning on pending accepted")
	}
	if _, err := s.Complete("a"); err == nil {
		t.Error("Complete on non-running accepted")
	}
	if err := s.Fail("a"); err == nil {
		t.Error("Fail on non-running accepted")
	}
}

func TestScheduleCancelAll(t *testing.T) {
	s, err := newSchedule(specs(t, [2]string{"a", ""}, [2]string{"b", "a"}))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.MarkRunning("a"); err != nil {
		t.Fatal(err)
	}
	s.CancelAll()
	if !s.Done() || !s.Failed() {
		t.Errorf("Done=%v Failed=%v after CancelAll", s.Done(), s.Failed())
	}
	counts := s.Counts()
	if counts[StatusCancelled] != 2 {
		t.Errorf("Counts = %v", counts)
	}
}

func TestStatusString(t *testing.T) {
	if StatusRunning.String() != "running" {
		t.Errorf("StatusRunning = %q", StatusRunning)
	}
	if Status(99).String() != "Status(99)" {
		t.Errorf("unknown = %q", Status(99))
	}
}

func TestScheduleDiamond(t *testing.T) {
	s, err := newSchedule(specs(t,
		[2]string{"top", ""},
		[2]string{"l", "top"},
		[2]string{"r", "top"},
		[2]string{"bottom", "l,r"},
	))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.MarkRunning("top"); err != nil {
		t.Fatal(err)
	}
	newly, err := s.Complete("top")
	if err != nil {
		t.Fatal(err)
	}
	if len(newly) != 2 {
		t.Fatalf("newly = %v", newly)
	}
	if err := s.MarkRunning("l"); err != nil {
		t.Fatal(err)
	}
	if err := s.MarkRunning("r"); err != nil {
		t.Fatal(err)
	}
	if n, err := s.Complete("l"); err != nil || len(n) != 0 {
		t.Fatalf("after l: %v %v", n, err)
	}
	n, err := s.Complete("r")
	if err != nil {
		t.Fatal(err)
	}
	if len(n) != 1 || n[0] != "bottom" {
		t.Fatalf("after r: %v", n)
	}
}

func TestScheduleProgress(t *testing.T) {
	s, err := newSchedule(specs(t,
		[2]string{"top", ""},
		[2]string{"l", "top"},
		[2]string{"r", "top"},
		[2]string{"bottom", "l,r"},
	))
	if err != nil {
		t.Fatal(err)
	}
	p := s.Progress()
	if p.Total != 4 || p.Ready != 1 || p.Pending != 3 {
		t.Fatalf("initial progress = %+v", p)
	}
	if err := s.MarkRunning("top"); err != nil {
		t.Fatal(err)
	}
	if p := s.Progress(); p.Running != 1 {
		t.Fatalf("running progress = %+v", p)
	}
	if _, err := s.Complete("top"); err != nil {
		t.Fatal(err)
	}
	if err := s.MarkRunning("l"); err != nil {
		t.Fatal(err)
	}
	if err := s.Fail("l"); err != nil {
		t.Fatal(err)
	}
	p = s.Progress()
	if p.Done != 1 || p.Failed != 1 || p.Cancelled != 2 {
		t.Fatalf("failed progress = %+v", p)
	}
	if p.Terminal() != 4 {
		t.Fatalf("terminal = %d", p.Terminal())
	}
	if !s.Done() || !s.Failed() {
		t.Fatalf("schedule done=%v failed=%v", s.Done(), s.Failed())
	}
	sum := p.Add(p)
	if sum.Total != 8 || sum.Failed != 2 {
		t.Fatalf("sum = %+v", sum)
	}
}

// TestScheduleRerunCreditsOnce: a completed producer that re-runs — its
// output lost with its node — and completes again does not credit its
// dependents a second time. d depends on a as well as on the diamond's
// middle, so a second credit from a would release it before b completes.
func TestScheduleRerunCreditsOnce(t *testing.T) {
	s, err := newSchedule(specs(t,
		[2]string{"a", ""},
		[2]string{"b", "a"},
		[2]string{"c", "a"},
		[2]string{"d", "a,b,c"},
	))
	if err != nil {
		t.Fatal(err)
	}
	if s.Rerun("a") {
		t.Fatal("Rerun of a ready task accepted")
	}
	if err := s.MarkRunning("a"); err != nil {
		t.Fatal(err)
	}
	newly, err := s.Complete("a")
	if err != nil || len(newly) != 2 || newly[0] != "b" || newly[1] != "c" {
		t.Fatalf("after a: %v %v", newly, err)
	}
	for _, name := range newly {
		if err := s.MarkRunning(name); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := s.Complete("c"); err != nil || len(n) != 0 {
		t.Fatalf("after c: %v %v", n, err)
	}
	if !s.Rerun("a") || s.Status("a") != StatusRunning {
		t.Fatalf("Rerun of done a refused (status %s)", s.Status("a"))
	}
	if s.Done() {
		t.Fatal("done while a re-runs")
	}
	if n, err := s.Complete("a"); err != nil || len(n) != 0 {
		t.Fatalf("a's second completion released %v (%v)", n, err)
	}
	if st := s.Status("d"); st != StatusPending {
		t.Fatalf("d is %s before b completed", st)
	}
	n, err := s.Complete("b")
	if err != nil || len(n) != 1 || n[0] != "d" {
		t.Fatalf("after b: %v %v", n, err)
	}
	if err := s.MarkRunning("d"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Complete("d"); err != nil {
		t.Fatal(err)
	}
	if !s.Done() || s.Failed() {
		t.Errorf("Done=%v Failed=%v", s.Done(), s.Failed())
	}
}

// TestTableDropCompacts: a refused frame's rows need not be the table's
// last — another frame may have been placed meanwhile. Taking them back
// keeps the other rows in creation order under a rebuilt index, and the
// job still starts over what is left.
func TestTableDropCompacts(t *testing.T) {
	all := specs(t, [2]string{"a", ""}, [2]string{"b", ""}, [2]string{"c", "a"}, [2]string{"d", "a"})
	tab := newTaskTable(len(all))
	for _, sp := range all {
		if err := tab.add(sp, protocol.ArchiveRef{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.add(all[0], protocol.ArchiveRef{}); err == nil {
		t.Fatal("a second row for a accepted")
	}
	tab.drop([]protocol.TaskCreate{{Spec: all[1]}, {Spec: all[2]}})
	if len(tab.tasks) != 2 || len(tab.index) != 2 || tab.tasks[0].spec.Name != "a" || tab.tasks[1].spec.Name != "d" {
		t.Fatalf("after drop: %d rows, index %v", len(tab.tasks), tab.index)
	}
	if tab.index["a"] != 0 || tab.index["d"] != 1 || tab.row("b") != nil || tab.row("c") != nil {
		t.Fatalf("index after drop: %v", tab.index)
	}
	if err := tab.start(); err != nil {
		t.Fatal(err)
	}
	s := testSchedule{&tab}
	if got := s.Ready(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("Ready = %v", got)
	}
	if err := s.MarkRunning("a"); err != nil {
		t.Fatal(err)
	}
	if n, err := s.Complete("a"); err != nil || len(n) != 1 || n[0] != "d" {
		t.Fatalf("after a: %v %v", n, err)
	}
}
