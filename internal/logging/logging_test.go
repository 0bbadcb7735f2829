package logging

import (
	"bytes"
	"log/slog"
	"strings"
	"testing"
)

func TestParseLevel(t *testing.T) {
	cases := map[string]slog.Level{
		"debug": slog.LevelDebug,
		"info":  slog.LevelInfo,
		"":      slog.LevelInfo,
		"WARN":  slog.LevelWarn,
		"error": slog.LevelError,
	}
	for in, want := range cases {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel accepted garbage")
	}
}

func TestNewLevelsAndAttrs(t *testing.T) {
	var buf bytes.Buffer
	log := Component(New(&buf, slog.LevelInfo), "jobmgr", "node1")
	log.Debug("hidden")
	log.Info("job created", "job", "node1-job1")
	out := buf.String()
	if strings.Contains(out, "hidden") {
		t.Errorf("debug record passed an info-level handler: %q", out)
	}
	for _, want := range []string{"job created", "component=jobmgr", "node=node1", "job=node1-job1"} {
		if !strings.Contains(out, want) {
			t.Errorf("output %q missing %q", out, want)
		}
	}
}

func TestDiscard(t *testing.T) {
	log := Discard()
	log.Info("nothing") // must not panic
	if log.Enabled(nil, slog.LevelError) {
		t.Error("discard logger claims to be enabled")
	}
}

// TestDebugfOneStream: a printf line is a Debug record of the component's
// own logger — attrs and all — and costs no formatting where Debug is off.
func TestDebugfOneStream(t *testing.T) {
	var buf bytes.Buffer
	Debugf(Component(New(&buf, slog.LevelDebug), "taskmgr", "n2"), "reject %s: %d MB", "j1/t1", 7)
	for _, want := range []string{"level=DEBUG", "reject j1/t1: 7 MB", "component=taskmgr", "node=n2"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("line %q missing %q", buf.String(), want)
		}
	}
	buf.Reset()
	formatted := false
	arg := stringerFunc(func() string { formatted = true; return "x" })
	Debugf(New(&buf, slog.LevelInfo), "%v", arg)
	Debugf(Discard(), "%v", arg)
	Debugf(Component(nil, "jobmgr", "n1"), "%v", arg)
	if buf.Len() != 0 || formatted {
		t.Errorf("Debug off: wrote %q, formatted %v", buf.String(), formatted)
	}
}

type stringerFunc func() string

func (f stringerFunc) String() string { return f() }
