package config

import (
	"flag"
	"sort"
	"strings"
	"testing"
	"time"

	"cn/internal/health"
	"cn/internal/placement"
	"cn/internal/task"
	"cn/internal/trace"
)

// TestDefaults checks WithDefaults against the godoc of every knob: zero
// selects the documented value, an explicit value is kept, and a negative
// "disabled" sentinel survives resolution.
func TestDefaults(t *testing.T) {
	const off = -1
	reg := task.NewRegistry()
	cases := []struct {
		knob     string
		in       Config
		got      func(Config) any
		zero     any // the value the godoc states for zero
		explicit any // what `in` sets, read back unchanged
	}{
		{"Nodes", Config{Nodes: 7}, func(c Config) any { return c.Nodes }, 4, 7},
		{"NodePrefix", Config{NodePrefix: "rack"}, func(c Config) any { return c.NodePrefix }, "node", "rack"},
		{"MemoryMB", Config{MemoryMB: 1000}, func(c Config) any { return c.MemoryMB }, 8000, 1000},
		{"MaxJobs", Config{MaxJobs: 64}, func(c Config) any { return c.MaxJobs }, 16, 64},
		{"Registry", Config{Registry: reg}, func(c Config) any { return c.Registry }, task.Global, reg},
		{"PlacementTTL", Config{PlacementTTL: time.Hour}, func(c Config) any { return c.PlacementTTL }, time.Second, time.Hour},
		{"AssignTimeout", Config{AssignTimeout: 9 * time.Second}, func(c Config) any { return c.AssignTimeout }, 5 * time.Second, 9 * time.Second},
		{"TombstoneTTL", Config{TombstoneTTL: time.Minute}, func(c Config) any { return c.TombstoneTTL }, 5 * time.Minute, time.Minute},
		{"HeartbeatInterval", Config{HeartbeatInterval: time.Second}, func(c Config) any { return c.HeartbeatInterval }, 500 * time.Millisecond, time.Second},
		{"SuspectAfter", Config{SuspectAfter: time.Second}, func(c Config) any { return c.SuspectAfter }, 1500 * time.Millisecond, time.Second},
		{"DeadAfter", Config{DeadAfter: time.Second}, func(c Config) any { return c.DeadAfter }, 3 * time.Second, time.Second},
		{"MaxTaskRetries", Config{MaxTaskRetries: 5}, func(c Config) any { return c.MaxTaskRetries }, 2, 5},
		{"StragglerAfter", Config{StragglerAfter: time.Second}, func(c Config) any { return c.StragglerAfter }, time.Duration(0), time.Second},
		{"CheckpointEvery", Config{CheckpointEvery: time.Second}, func(c Config) any { return c.CheckpointEvery }, 500 * time.Millisecond, time.Second},
		{"TraceSample", Config{TraceSample: 1}, func(c Config) any { return c.TraceSample }, 0.125, 1.0},
	}
	for _, tc := range cases {
		if got := tc.got(Config{}.WithDefaults()); got != tc.zero {
			t.Errorf("%s: zero resolves to %v, godoc says %v", tc.knob, got, tc.zero)
		}
		if got := tc.got(tc.in.WithDefaults()); got != tc.explicit {
			t.Errorf("%s: explicit %v resolves to %v", tc.knob, tc.explicit, got)
		}
	}

	// Lease windows and checkpointing follow an explicit heartbeat.
	hb := Config{HeartbeatInterval: time.Second}.WithDefaults()
	if hb.SuspectAfter != 3*time.Second || hb.DeadAfter != 6*time.Second || hb.CheckpointEvery != time.Second {
		t.Errorf("heartbeat 1s: suspect %v dead %v checkpoint %v, want 3s 6s 1s",
			hb.SuspectAfter, hb.DeadAfter, hb.CheckpointEvery)
	}

	disabled := Config{HeartbeatInterval: off, CheckpointEvery: off, MaxTaskRetries: off,
		TombstoneTTL: off, PlacementTTL: off, TraceSample: off}.WithDefaults()
	for knob, got := range map[string]float64{
		"HeartbeatInterval": float64(disabled.HeartbeatInterval),
		"CheckpointEvery":   float64(disabled.CheckpointEvery),
		"MaxTaskRetries":    float64(disabled.MaxTaskRetries),
		"TombstoneTTL":      float64(disabled.TombstoneTTL),
		"PlacementTTL":      float64(disabled.PlacementTTL),
		"TraceSample":       disabled.TraceSample,
	} {
		if got != off {
			t.Errorf("%s: sentinel -1 resolves to %v", knob, got)
		}
	}

	// Heartbeating off turns checkpointing off with it, and the lease
	// windows keep the default heartbeat's sizing.
	noBeat := Config{HeartbeatInterval: off, CheckpointEvery: 0}.WithDefaults()
	if noBeat.CheckpointEvery >= 0 {
		t.Errorf("heartbeat off: CheckpointEvery = %v, want checkpointing off", noBeat.CheckpointEvery)
	}
	if noBeat.SuspectAfter != 1500*time.Millisecond || noBeat.DeadAfter != 3*time.Second {
		t.Errorf("heartbeat off: suspect %v dead %v, want 1.5s 3s", noBeat.SuspectAfter, noBeat.DeadAfter)
	}
	// An explicit cadence does not bring it back: adoption waits on a node
	// lease, and no beat renews one.
	if c := (Config{HeartbeatInterval: off, CheckpointEvery: time.Second}).WithDefaults(); c.CheckpointEvery >= 0 {
		t.Errorf("heartbeat off, CheckpointEvery 1s: resolves to %v, want checkpointing off", c.CheckpointEvery)
	} else if again := c.WithDefaults(); again != c {
		t.Errorf("resolving it again changed it: %+v -> %+v", c, again)
	}

	// The layers below keep defaults of their own for their own configs;
	// a deployment's resolved values must not drift from them.
	full := Config{}.WithDefaults()
	if full.HeartbeatInterval != health.DefaultInterval || full.PlacementTTL != placement.DefaultTTL ||
		full.TraceSample != trace.DefaultSample {
		t.Errorf("resolved heartbeat %v, placement TTL %v, trace sample %v; health, placement and trace default to %v, %v, %v",
			full.HeartbeatInterval, full.PlacementTTL, full.TraceSample,
			health.DefaultInterval, placement.DefaultTTL, trace.DefaultSample)
	}
	if again := full.WithDefaults(); again != full {
		t.Errorf("resolving a resolved Config changed it: %+v -> %+v", full, again)
	}
}

// TestFlags registers the shared flags on a fresh set: exactly the six
// names, bound to the struct.
func TestFlags(t *testing.T) {
	var c Config
	fs := flag.NewFlagSet("cn", flag.ContinueOnError)
	c.Flags(fs)
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	sort.Strings(names)
	want := "assign-timeout heartbeat max-task-retries nodes straggler-after trace-sample"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("flags = %s, want %s", got, want)
	}
	if err := fs.Parse([]string{"-heartbeat", "1s", "-max-task-retries", "-1", "-trace-sample", "-1"}); err != nil {
		t.Fatal(err)
	}
	if c.HeartbeatInterval != time.Second || c.MaxTaskRetries != -1 || c.TraceSample != -1 {
		t.Errorf("parsed heartbeat %v retries %d sample %v, want 1s -1 -1",
			c.HeartbeatInterval, c.MaxTaskRetries, c.TraceSample)
	}
	// A flag left alone carries the effective default.
	if c.Nodes != 4 || c.AssignTimeout != 5*time.Second || c.StragglerAfter != 0 {
		t.Errorf("unparsed flags: nodes %d assign %v straggler %v, want 4 5s 0",
			c.Nodes, c.AssignTimeout, c.StragglerAfter)
	}
}
