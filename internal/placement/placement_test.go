package placement

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"cn/internal/protocol"
	"cn/internal/task"
)

// fakeSolicit counts rounds and serves a scripted sequence of offer sets
// (the last set repeats once the script runs out).
type fakeSolicit struct {
	mu     sync.Mutex
	rounds int
	script [][]protocol.TMOffer
	err    error
}

func (f *fakeSolicit) solicit() ([]protocol.TMOffer, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rounds++
	if f.err != nil {
		return nil, f.err
	}
	i := f.rounds - 1
	if i >= len(f.script) {
		i = len(f.script) - 1
	}
	return f.script[i], nil
}

func (f *fakeSolicit) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rounds
}

func offer(node string, freeMB, running int) protocol.TMOffer {
	return protocol.TMOffer{Node: node, FreeMemoryMB: freeMB, RunningTasks: running}
}

func memSpec(name string, mb int) *task.Spec {
	return &task.Spec{Name: name, Class: "t", Req: task.Requirements{MemoryMB: mb}}
}

// fakeClock is an adjustable time source.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestDirectoryCachesWithinTTL(t *testing.T) {
	fs := &fakeSolicit{script: [][]protocol.TMOffer{{offer("n1", 100, 0), offer("n2", 200, 0)}}}
	clock := &fakeClock{now: time.Unix(1000, 0)}
	d := NewDirectory(Config{Solicit: fs.solicit, TTL: time.Second, Now: clock.Now})

	first, err := d.Offers()
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 2 {
		t.Fatalf("offers = %v", first)
	}
	for i := 0; i < 5; i++ {
		clock.Advance(100 * time.Millisecond)
		if _, err := d.Offers(); err != nil {
			t.Fatal(err)
		}
	}
	if got := fs.count(); got != 1 {
		t.Errorf("solicit rounds = %d, want 1 (cached within TTL)", got)
	}
	st := d.Stats()
	if st.SolicitRounds != 1 || st.CacheHits != 5 {
		t.Errorf("stats = %+v, want 1 round / 5 hits", st)
	}
}

func TestDirectoryRefreshesWhenStale(t *testing.T) {
	fs := &fakeSolicit{script: [][]protocol.TMOffer{
		{offer("n1", 100, 0)},
		{offer("n1", 50, 1), offer("n2", 300, 0)},
	}}
	clock := &fakeClock{now: time.Unix(1000, 0)}
	d := NewDirectory(Config{Solicit: fs.solicit, TTL: time.Second, Now: clock.Now})

	if _, err := d.Offers(); err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * time.Second) // past the TTL
	got, err := d.Offers()
	if err != nil {
		t.Fatal(err)
	}
	if fs.count() != 2 {
		t.Errorf("solicit rounds = %d, want 2 (stale cache refreshed)", fs.count())
	}
	if len(got) != 2 || got[0].FreeMemoryMB != 50 {
		t.Errorf("offers after refresh = %v", got)
	}
}

func TestDirectoryRefreshesWhenEmpty(t *testing.T) {
	// First round yields no offers (no TaskManager responded); the next
	// Offers call must probe again rather than serve the cached emptiness.
	fs := &fakeSolicit{script: [][]protocol.TMOffer{{}, {offer("n1", 100, 0)}}}
	clock := &fakeClock{now: time.Unix(1000, 0)}
	d := NewDirectory(Config{Solicit: fs.solicit, TTL: time.Minute, Now: clock.Now})

	if got, _ := d.Offers(); len(got) != 0 {
		t.Fatalf("first round offers = %v, want none", got)
	}
	got, err := d.Offers()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || fs.count() != 2 {
		t.Errorf("offers = %v after %d rounds, want 1 offer from round 2", got, fs.count())
	}
}

func TestDirectoryInvalidation(t *testing.T) {
	fs := &fakeSolicit{script: [][]protocol.TMOffer{
		{offer("n1", 100, 0), offer("n2", 100, 0)},
		{offer("n1", 100, 0), offer("n2", 100, 0)},
	}}
	clock := &fakeClock{now: time.Unix(1000, 0)}
	d := NewDirectory(Config{Solicit: fs.solicit, TTL: time.Minute, Now: clock.Now})

	if _, err := d.Offers(); err != nil {
		t.Fatal(err)
	}
	d.Invalidate("n2") // n2 rejected an assignment
	got, err := d.Offers()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Node != "n1" {
		t.Errorf("offers after invalidation = %v, want only n1", got)
	}
	if fs.count() != 1 {
		t.Errorf("rounds = %d; invalidating one node must not force a refresh while others are cached", fs.count())
	}
	d.Invalidate("n1") // cache now empty -> next Offers solicits afresh
	if _, err := d.Offers(); err != nil {
		t.Fatal(err)
	}
	if fs.count() != 2 {
		t.Errorf("rounds = %d, want 2 after the cache emptied", fs.count())
	}
	if st := d.Stats(); st.Invalidations != 2 {
		t.Errorf("invalidations = %d, want 2", st.Invalidations)
	}
}

func TestDirectoryNegativeTTLAlwaysSolicits(t *testing.T) {
	fs := &fakeSolicit{script: [][]protocol.TMOffer{{offer("n1", 100, 0)}}}
	d := NewDirectory(Config{Solicit: fs.solicit, TTL: -1})
	for i := 0; i < 3; i++ {
		if _, err := d.Offers(); err != nil {
			t.Fatal(err)
		}
	}
	if fs.count() != 3 {
		t.Errorf("rounds = %d, want 3 with caching disabled", fs.count())
	}
}

func TestDirectorySolicitError(t *testing.T) {
	fs := &fakeSolicit{err: errors.New("fabric down")}
	d := NewDirectory(Config{Solicit: fs.solicit})
	if _, err := d.Offers(); err == nil {
		t.Error("Offers succeeded with a failing solicit")
	}
}

// figure is a capacity report of seq, free MB and running tasks.
func figure(seq uint64, freeMB, running int) protocol.Capacity {
	return protocol.Capacity{Seq: seq, FreeMemoryMB: freeMB, RunningTasks: running}
}

// cached serves the directory's entry for node from a fresh cache.
func cached(t *testing.T, d *Directory, node string) (protocol.TMOffer, bool) {
	t.Helper()
	offers, err := d.Offers()
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range offers {
		if o.Node == node {
			return o, true
		}
	}
	return protocol.TMOffer{}, false
}

// TestDirectoryFigureNewerReplacesOlderIgnored: a figure newer than the
// entry's replaces its free memory and running count; one no newer —
// older, equal, or sequence 0 (no figure) — changes nothing, whatever order
// figures that crossed arrive in.
func TestDirectoryFigureNewerReplacesOlderIgnored(t *testing.T) {
	o := offer("n1", 1000, 0)
	o.Seq = 5
	fs := &fakeSolicit{script: [][]protocol.TMOffer{{o}}}
	d := NewDirectory(Config{Solicit: fs.solicit, TTL: time.Hour})
	if _, err := d.Offers(); err != nil {
		t.Fatal(err)
	}
	d.Apply("n1", figure(4, 100, 9)) // read before the round's offer
	if got, _ := cached(t, d, "n1"); got.FreeMemoryMB != 1000 || got.RunningTasks != 0 || got.Seq != 5 {
		t.Errorf("after an older figure: %+v, want the round's 1000 MB / 0 running", got)
	}
	d.Apply("n1", figure(7, 400, 3))
	d.Apply("n1", figure(6, 600, 2)) // crossed the newer one
	d.Apply("n1", figure(7, 0, 8))   // not newer
	d.Apply("n1", figure(0, 50, 0))  // no figure
	if got, _ := cached(t, d, "n1"); got.FreeMemoryMB != 400 || got.RunningTasks != 3 || got.Seq != 7 {
		t.Errorf("after figures 7, 6, 7, 0: %+v, want figure 7's 400 MB / 3 running", got)
	}

	// Figures applied concurrently, in any order, leave the newest.
	var wg sync.WaitGroup
	for seq := uint64(8); seq < 40; seq++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.Apply("n1", figure(seq, int(seq), 1))
		}()
	}
	wg.Wait()
	if got, _ := cached(t, d, "n1"); got.FreeMemoryMB != 39 || got.Seq != 39 {
		t.Errorf("after concurrent figures 8..39: %+v, want figure 39", got)
	}
	if fs.count() != 1 {
		t.Errorf("solicit rounds = %d, want 1 (all served from cache)", fs.count())
	}
}

// TestDirectoryFigureCreatesNoEntry: only a round creates entries. A figure
// for a node that never offered, or whose entry was invalidated, is dropped.
func TestDirectoryFigureCreatesNoEntry(t *testing.T) {
	o := offer("n1", 100, 0)
	o.Seq = 1
	fs := &fakeSolicit{script: [][]protocol.TMOffer{{o}}}
	d := NewDirectory(Config{Solicit: fs.solicit, TTL: time.Hour})
	if _, err := d.Offers(); err != nil {
		t.Fatal(err)
	}
	d.Apply("ghost", figure(9, 500, 0))
	if _, ok := cached(t, d, "ghost"); ok {
		t.Error("a figure created an entry for a node that never offered")
	}
	d.Invalidate("n1")
	d.Apply("n1", figure(2, 500, 0))
	offers, err := d.Offers() // nothing cached: a fresh round
	if err != nil {
		t.Fatal(err)
	}
	if fs.count() != 2 || len(offers) != 1 || offers[0].FreeMemoryMB != 100 {
		t.Errorf("after invalidation and a figure: %d rounds, offers %+v; want a second round's 100 MB", fs.count(), offers)
	}
}

// TestDirectoryRoundReplacesFigures: a fresh round replaces every entry
// wholesale — figure, sequence, digests and stall count — even with an
// older sequence (a node that restarted), and later figures compare against
// the round's sequence.
func TestDirectoryRoundReplacesFigures(t *testing.T) {
	first := protocol.TMOffer{Node: "n1", FreeMemoryMB: 1000, Seq: 5, ResidentDigests: []string{"a"}, StalledTasks: 2}
	restarted := protocol.TMOffer{Node: "n1", FreeMemoryMB: 800, Seq: 1, ResidentDigests: []string{"b"}}
	fs := &fakeSolicit{script: [][]protocol.TMOffer{{first}, {restarted}}}
	clock := &fakeClock{now: time.Unix(1000, 0)}
	d := NewDirectory(Config{Solicit: fs.solicit, TTL: time.Minute, Now: clock.Now})
	if _, err := d.Offers(); err != nil {
		t.Fatal(err)
	}
	d.Apply("n1", figure(9, 200, 4))
	clock.Advance(2 * time.Minute)
	got, _ := cached(t, d, "n1")
	if fs.count() != 2 || got.FreeMemoryMB != 800 || got.RunningTasks != 0 || got.Seq != 1 ||
		len(got.ResidentDigests) != 1 || got.ResidentDigests[0] != "b" || got.StalledTasks != 0 {
		t.Errorf("after the second round: %+v, want the round's offer whole", got)
	}
	d.Apply("n1", figure(2, 300, 1))
	if got, _ := cached(t, d, "n1"); got.FreeMemoryMB != 300 {
		t.Errorf("figure 2 after a round at 1: %+v, want 300 MB", got)
	}
}

// TestDirectoryFigureKeepsDigestsAndStragglers: a figure changes the free
// memory and running count only; the round's digests and stall count, and
// the JobManager's straggler marks, stay.
func TestDirectoryFigureKeepsDigestsAndStragglers(t *testing.T) {
	o := protocol.TMOffer{Node: "n1", FreeMemoryMB: 1000, Seq: 1, ResidentDigests: []string{"a", "b"}, StalledTasks: 1}
	fs := &fakeSolicit{script: [][]protocol.TMOffer{{o}}}
	d := NewDirectory(Config{Solicit: fs.solicit, TTL: time.Hour})
	if _, err := d.Offers(); err != nil {
		t.Fatal(err)
	}
	d.NoteStraggler("n1")
	d.Apply("n1", figure(2, 600, 2))
	got, _ := cached(t, d, "n1")
	if got.FreeMemoryMB != 600 || got.RunningTasks != 2 || len(got.ResidentDigests) != 2 || got.StalledTasks != 2 {
		t.Errorf("after a figure: %+v, want 600 MB / 2 running, both digests, 1 stall + 1 mark", got)
	}
}

func TestDirectoryConcurrentRefreshSingleFlight(t *testing.T) {
	fs := &fakeSolicit{script: [][]protocol.TMOffer{{offer("n1", 100, 0)}}}
	d := NewDirectory(Config{Solicit: fs.solicit, TTL: time.Minute})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := d.Offers(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	// Concurrent callers may at worst each trigger one round, but a cold
	// directory should collapse most of them into the shared in-flight
	// round; the hard requirement is far fewer rounds than callers.
	if fs.count() > 2 {
		t.Errorf("rounds = %d for 8 concurrent callers, want <= 2", fs.count())
	}
}

// planNoWants plans the way a job without archives is planned: no wants,
// the default scorer. With nothing resident to prefer the ranking is the
// worst-fit spreading rule — most free memory, fewest running tasks, lowest
// node name — and there is no locality outcome to report.
func planNoWants(t *testing.T, specs []*task.Spec, offers []protocol.TMOffer) (plan map[string][]*task.Spec, unplaced []*task.Spec) {
	t.Helper()
	plan, unplaced, stats := PlanScored(specs, offers, Wants{}, DefaultScorer{})
	if stats != (PlanStats{}) {
		t.Errorf("wantless plan reported locality stats: %+v", stats)
	}
	return plan, unplaced
}

func TestPlanDeterministicTieBreaking(t *testing.T) {
	// Identical capacity everywhere: placement must still be a pure
	// function of the input, with ties broken by running count then node
	// name.
	offers := []protocol.TMOffer{offer("n3", 100, 1), offer("n1", 100, 0), offer("n2", 100, 0)}
	specs := []*task.Spec{memSpec("a", 10), memSpec("b", 10)}
	first, unplaced := planNoWants(t, specs, offers)
	if len(unplaced) != 0 {
		t.Fatalf("unplaced = %v", unplaced)
	}
	for i := 0; i < 10; i++ {
		again, _ := planNoWants(t, specs, offers)
		if fmt.Sprint(again) != fmt.Sprint(first) {
			t.Fatalf("plan not deterministic: %v vs %v", again, first)
		}
	}
	// "a" goes to n1 (lowest name among equal-capacity, equal-load nodes);
	// "b" then prefers n2, which still has 100 MB free vs n1's 90.
	if got := first["n1"]; len(got) != 1 || got[0].Name != "a" {
		t.Errorf("n1 got %v, want [a]", names(first["n1"]))
	}
	if got := first["n2"]; len(got) != 1 || got[0].Name != "b" {
		t.Errorf("n2 got %v, want [b]", names(first["n2"]))
	}
	if len(first["n3"]) != 0 {
		t.Errorf("n3 (loaded) got %v, want nothing", names(first["n3"]))
	}
}

func names(specs []*task.Spec) []string {
	out := make([]string, len(specs))
	for i, sp := range specs {
		out[i] = sp.Name
	}
	return out
}

func TestPlanBinPacksAgainstFreeMemory(t *testing.T) {
	offers := []protocol.TMOffer{offer("big", 1000, 0), offer("small", 100, 0)}
	specs := []*task.Spec{
		memSpec("huge", 900),
		memSpec("mid", 80),
		memSpec("tiny", 10),
	}
	plan, unplaced := planNoWants(t, specs, offers)
	if len(unplaced) != 0 {
		t.Fatalf("unplaced = %v", names(unplaced))
	}
	// "huge" only fits on big (1000 -> 100 free). "mid" then sees a
	// 100 MB tie and goes to small, which runs fewer tasks; "tiny"
	// returns to big, which again has the most free memory.
	if got := names(plan["big"]); fmt.Sprint(got) != "[huge tiny]" {
		t.Errorf("big got %v, want [huge tiny]", got)
	}
	if got := names(plan["small"]); fmt.Sprint(got) != "[mid]" {
		t.Errorf("small got %v, want [mid]", got)
	}
}

func TestPlanReportsUnplaceable(t *testing.T) {
	offers := []protocol.TMOffer{offer("n1", 100, 0)}
	plan, unplaced := planNoWants(t, []*task.Spec{memSpec("fits", 50), memSpec("nofit", 500)}, offers)
	if len(plan["n1"]) != 1 || plan["n1"][0].Name != "fits" {
		t.Errorf("plan = %v", plan)
	}
	if len(unplaced) != 1 || unplaced[0].Name != "nofit" {
		t.Fatalf("unplaced = %v, want [nofit]", names(unplaced))
	}
	if err := UnplacedError(unplaced); err == nil {
		t.Error("UnplacedError returned nil")
	}
}

func TestDirectoryLiveGateEvictsDepartedNodes(t *testing.T) {
	fs := &fakeSolicit{script: [][]protocol.TMOffer{
		{offer("n1", 100, 0), offer("n2", 200, 0), offer("n3", 300, 0)},
	}}
	clk := &fakeClock{now: time.Unix(1000, 0)}
	dead := map[string]bool{}
	liveSet := func() map[string]bool {
		live := map[string]bool{}
		for _, n := range []string{"n1", "n2", "n3", "n9"} {
			if !dead[n] {
				live[n] = true
			}
		}
		return live
	}
	d := NewDirectory(Config{
		Solicit: fs.solicit,
		TTL:     time.Hour, // the TTL alone would serve stale entries forever
		Now:     clk.Now,
		Live:    liveSet,
	})
	offers, err := d.Offers()
	if err != nil || len(offers) != 3 {
		t.Fatalf("offers = %v err = %v", offers, err)
	}
	// n2 leaves the cluster; the cached entry must be evicted on the next
	// read even though the round is still fresh.
	dead["n2"] = true
	offers, err = d.Offers()
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) != 2 || offers[0].Node != "n1" || offers[1].Node != "n3" {
		t.Fatalf("offers after departure = %v", offers)
	}
	if fs.count() != 1 {
		t.Errorf("solicit rounds = %d, want 1 (eviction must not force a round)", fs.count())
	}
	if st := d.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
}

func TestDirectoryLiveGateEmptiesCacheTriggersResolicit(t *testing.T) {
	fs := &fakeSolicit{script: [][]protocol.TMOffer{
		{offer("n1", 100, 0)},
		{offer("n9", 900, 0)},
	}}
	clk := &fakeClock{now: time.Unix(1000, 0)}
	dead := map[string]bool{}
	liveSet := func() map[string]bool {
		live := map[string]bool{}
		for _, n := range []string{"n1", "n2", "n3", "n9"} {
			if !dead[n] {
				live[n] = true
			}
		}
		return live
	}
	d := NewDirectory(Config{
		Solicit: fs.solicit,
		TTL:     time.Hour,
		Now:     clk.Now,
		Live:    liveSet,
	})
	if _, err := d.Offers(); err != nil {
		t.Fatal(err)
	}
	dead["n1"] = true
	offers, err := d.Offers()
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) != 1 || offers[0].Node != "n9" {
		t.Fatalf("offers = %v, want fresh round's n9", offers)
	}
	if fs.count() != 2 {
		t.Errorf("solicit rounds = %d, want 2 (empty cache falls through)", fs.count())
	}
}

func TestDirectoryEvict(t *testing.T) {
	fs := &fakeSolicit{script: [][]protocol.TMOffer{
		{offer("n1", 100, 0), offer("n2", 200, 0)},
	}}
	clk := &fakeClock{now: time.Unix(1000, 0)}
	d := NewDirectory(Config{Solicit: fs.solicit, TTL: time.Hour, Now: clk.Now})
	if _, err := d.Offers(); err != nil {
		t.Fatal(err)
	}
	d.Evict("n2")
	d.Evict("n2") // idempotent
	offers, err := d.Offers()
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) != 1 || offers[0].Node != "n1" {
		t.Fatalf("offers after evict = %v", offers)
	}
	if st := d.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
}
