package main

// The environment envelope stamped into every output file, so a number can
// always be traced back to the machine and commit that produced it.

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

type envelope struct {
	Commit     string `json:"git_commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
}

func readEnvelope() envelope {
	e := envelope{
		Commit:     "unknown", // a checkout without .git
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
		Kernel:     "unknown",
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(raw))
	}
	return e
}

// fsType names the filesystem holding dir (or its nearest existing parent).
func fsType(dir string) string {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	for {
		var st syscall.Statfs_t
		if err := syscall.Statfs(dir, &st); err == nil {
			switch uint32(st.Type) {
			case 0xEF53:
				return "ext"
			case 0x01021994:
				return "tmpfs"
			case 0x794C7630:
				return "overlay"
			case 0x58465342:
				return "xfs"
			case 0x9123683E:
				return "btrfs"
			}
			return fmt.Sprintf("0x%x", uint32(st.Type))
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "unknown"
		}
		dir = parent
	}
}
