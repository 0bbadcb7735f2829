package placement

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"cn/internal/protocol"
	"cn/internal/task"
)

// warmOffer is offer() plus locality fields.
func warmOffer(node string, freeMB, running int, digests []string, stalled int) protocol.TMOffer {
	o := offer(node, freeMB, running)
	o.ResidentDigests = digests
	o.StalledTasks = stalled
	return o
}

func TestScoredWarmBeatsCold(t *testing.T) {
	// n1 is colder on every capacity axis but holds the job's archive; the
	// resident bytes must dominate free memory and load.
	offers := []protocol.TMOffer{
		warmOffer("n1", 2000, 3, []string{"arch"}, 0),
		offer("n2", 8000, 0),
	}
	wants := Wants{Digests: map[string]int64{"arch": 64 << 10}}
	plan, unplaced, stats := PlanScored([]*task.Spec{memSpec("a", 1000)}, offers, wants, DefaultScorer{})
	if len(unplaced) != 0 {
		t.Fatalf("unplaced: %v", unplaced)
	}
	if len(plan["n1"]) != 1 {
		t.Fatalf("task placed on %v, want warm n1", plan)
	}
	if stats.WarmHits != 1 || stats.ColdMisses != 0 {
		t.Errorf("stats = %+v, want 1 warm hit", stats)
	}
	if stats.BytesSaved != 64<<10 {
		t.Errorf("BytesSaved = %d, want %d", stats.BytesSaved, 64<<10)
	}
}

func TestScoredCapacityFilterBeatsWarmth(t *testing.T) {
	// A warm node without the memory must not be chosen: feasibility is a
	// filter, not a score component.
	offers := []protocol.TMOffer{
		warmOffer("warm", 500, 0, []string{"arch"}, 0),
		offer("cold", 4000, 0),
	}
	wants := Wants{Digests: map[string]int64{"arch": 1 << 20}}
	plan, unplaced, stats := PlanScored([]*task.Spec{memSpec("a", 1000)}, offers, wants, DefaultScorer{})
	if len(unplaced) != 0 {
		t.Fatalf("unplaced: %v", unplaced)
	}
	if len(plan["cold"]) != 1 {
		t.Fatalf("plan = %v, want task on cold (warm is infeasible)", plan)
	}
	if stats.WarmHits != 0 || stats.ColdMisses != 1 || stats.BytesSaved != 0 {
		t.Errorf("stats = %+v, want one cold miss and no bytes saved", stats)
	}
}

func TestScoredMoreResidentBytesWins(t *testing.T) {
	// Both nodes are warm; the one holding more of the job's wanted bytes
	// wins even with less free memory.
	offers := []protocol.TMOffer{
		warmOffer("n1", 2000, 0, []string{"arch"}, 0),
		warmOffer("n2", 8000, 0, []string{"arch", "shuf"}, 0),
	}
	wants := Wants{Digests: map[string]int64{"arch": 100, "shuf": 1000}}
	plan, _, _ := PlanScored([]*task.Spec{memSpec("a", 1000)}, offers, wants, DefaultScorer{})
	if len(plan["n2"]) != 1 {
		t.Fatalf("plan = %v, want n2 (1100 resident bytes beats 100)", plan)
	}
}

func TestScoredStragglerPenaltyBreaksTies(t *testing.T) {
	// Identical capacity and warmth: the node without recent stragglers
	// wins; with stalls equal too, the name tie-break keeps determinism.
	offers := []protocol.TMOffer{
		warmOffer("n1", 4000, 0, nil, 2),
		warmOffer("n2", 4000, 0, nil, 0),
	}
	plan, _, _ := PlanScored([]*task.Spec{memSpec("a", 1000)}, offers, Wants{}, DefaultScorer{})
	if len(plan["n2"]) != 1 {
		t.Fatalf("plan = %v, want n2 (no straggler history)", plan)
	}
}

func TestScoredDeterministicUnderEqualScores(t *testing.T) {
	// Fully tied offers in every permutation must yield one plan: the
	// lowest node name.
	base := []protocol.TMOffer{
		warmOffer("n3", 4000, 1, []string{"d"}, 1),
		warmOffer("n1", 4000, 1, []string{"d"}, 1),
		warmOffer("n2", 4000, 1, []string{"d"}, 1),
	}
	wants := Wants{Digests: map[string]int64{"d": 42}}
	specs := []*task.Spec{memSpec("a", 1000)}
	var first map[string][]*task.Spec
	for i := 0; i < len(base); i++ {
		rotated := append(append([]protocol.TMOffer{}, base[i:]...), base[:i]...)
		plan, _, _ := PlanScored(specs, rotated, wants, DefaultScorer{})
		if first == nil {
			first = plan
			if len(plan["n1"]) != 1 {
				t.Fatalf("plan = %v, want lowest name n1", plan)
			}
			continue
		}
		if !reflect.DeepEqual(plan, first) {
			t.Fatalf("rotation %d changed the plan: %v vs %v", i, plan, first)
		}
	}
}

func TestScoredBytesSavedCountsNodeDigestOnce(t *testing.T) {
	// Many tasks landing on one warm node save the archive bytes once, not
	// once per task.
	offers := []protocol.TMOffer{warmOffer("n1", 8000, 0, []string{"arch"}, 0)}
	wants := Wants{Digests: map[string]int64{"arch": 500}}
	specs := []*task.Spec{memSpec("a", 1000), memSpec("b", 1000), memSpec("c", 1000)}
	_, unplaced, stats := PlanScored(specs, offers, wants, DefaultScorer{})
	if len(unplaced) != 0 {
		t.Fatalf("unplaced: %v", unplaced)
	}
	if stats.BytesSaved != 500 {
		t.Errorf("BytesSaved = %d, want 500 (once per node, not per task)", stats.BytesSaved)
	}
	if stats.WarmHits != 3 {
		t.Errorf("WarmHits = %d, want 3", stats.WarmHits)
	}
}

func TestUnplacedErrorBoundsNames(t *testing.T) {
	specs := make([]*task.Spec, 20)
	for i := range specs {
		specs[i] = memSpec(fmt.Sprintf("t%02d", i), 100)
	}
	msg := UnplacedError(specs).Error()
	if !strings.Contains(msg, "and 12 more") {
		t.Errorf("error %q does not summarize the overflow", msg)
	}
	if strings.Contains(msg, "t08") {
		t.Errorf("error %q names tasks past the bound", msg)
	}
	short := UnplacedError(specs[:2]).Error()
	if strings.Contains(short, "more") || !strings.Contains(short, "t01") {
		t.Errorf("short error %q mangled", short)
	}
}

func TestDirectoryAffinityOverlay(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	fs := &fakeSolicit{script: [][]protocol.TMOffer{
		{offer("n1", 4000, 0), offer("n2", 4000, 0)},
	}}
	d := NewDirectory(Config{Solicit: fs.solicit, TTL: time.Hour, Now: clk.Now})
	if _, err := d.Offers(); err != nil {
		t.Fatal(err)
	}

	// Straggler marks merge into cached offers.
	d.NoteStraggler("n1")
	d.NoteStraggler("n1")
	got, err := d.Offers()
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Node != "n1" || got[0].StalledTasks != 2 {
		t.Errorf("n1 = %+v, want 2 overlay stragglers", got[0])
	}

	// A fresh round halves straggler marks.
	clk.Advance(2 * time.Hour)
	got, err = d.Offers()
	if err != nil {
		t.Fatal(err)
	}
	if fs.count() != 2 {
		t.Fatalf("rounds = %d, want 2", fs.count())
	}
	if got[0].StalledTasks != 1 {
		t.Errorf("n1 stalls after decay = %d, want 1", got[0].StalledTasks)
	}

	// Invalidate keeps the straggler history; Evict forgets everything.
	d.Invalidate("n1")
	d.NoteStraggler("n2")
	d.Evict("n2")
	clk.Advance(2 * time.Hour)
	got, err = d.Offers()
	if err != nil {
		t.Fatal(err)
	}
	// Round 3 halves n1's single remaining mark to zero.
	if got[0].Node != "n1" || got[0].StalledTasks != 0 {
		t.Errorf("n1 after second decay = %+v", got[0])
	}
	if got[1].Node != "n2" || got[1].StalledTasks != 0 {
		t.Errorf("evicted n2 kept affinity: %+v", got[1])
	}
}

func TestDirectoryNotePlanAccumulates(t *testing.T) {
	fs := &fakeSolicit{script: [][]protocol.TMOffer{{offer("n1", 4000, 0)}}}
	d := NewDirectory(Config{Solicit: fs.solicit})
	d.NotePlan(PlanStats{WarmHits: 2, ColdMisses: 1, BytesSaved: 1024})
	d.NotePlan(PlanStats{WarmHits: 1, BytesSaved: 10})
	s := d.Stats()
	if s.WarmHits != 3 || s.ColdMisses != 1 || s.BytesSaved != 1034 {
		t.Errorf("stats = %+v", s)
	}
}
