// Command bench is CN's end-to-end benchmark: it boots a real cluster
// in-process, drives one of four named workloads from a single load
// generator, verifies every result, and prints each metric by name with its
// unit. See README.md for the workloads, the metrics and how to read them.
//
// Usage (from the repository root; run.sh builds and runs this program):
//
//	bash bench/run.sh --workload fanout_closed --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload all --out bench/out/set-a.json
//	bash bench/run.sh --compare bench/out/set-a.json bench/out/set-b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
)

func main() {
	var (
		name     = flag.String("workload", "all", "workload to run: fanout_closed, mix_open, shuffle_bulk, bag_ts, or all (each timed then traced, in child processes)")
		seed     = flag.Int64("seed", 1, "seeds every generated input and schedule")
		seconds  = flag.Int("seconds", defaultSeconds, "measured length of one run")
		traceOn  = flag.Int("trace", 0, "0: tracing off, end-to-end metrics; 1: per-layer metrics from counters, spans and probes")
		out      = flag.String("out", "", "also write the full results (environment, errors, budget) to this JSON file")
		cmp      = flag.Bool("compare", false, "compare two -out files, or two directories of them, given as arguments; exit 1 if any end-to-end metric got worse by more than its bound")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json for the metrics this binary declares")
	)
	flag.Parse()
	switch {
	case *manifest:
		fmt.Println(benchmarkJSON())
	case *cmp:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files or directories"))
		}
		worse, err := compare(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
	case *name == "all":
		if err := runAll(*seed, *seconds, *out); err != nil {
			fatal(err)
		}
	default:
		wl := workloadByName(*name)
		if wl == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		if *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
			fatal(fmt.Errorf("-seconds must be at least 1 and -trace 0 or 1"))
		}
		if err := checkManifest("BENCHMARK.json"); err != nil {
			fatal(err)
		}
		res, err := run(runConfig{Workload: wl, Seed: *seed, Seconds: *seconds, Trace: *traceOn == 1, OutDir: outDir(), Timing: shippedTiming})
		if err != nil {
			fatal(err)
		}
		if *out != "" {
			if err := writeOutput(*out, &outputFile{Env: res.Env, Runs: []*result{res}}); err != nil {
				fatal(err)
			}
		}
		printResult(os.Stdout, res)
		fmt.Println(res.summaryLine())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// outDir is where runs leave trace files and keep their WAL directories:
// the benchmark's own out/ directory, whether run from the repository root
// or from bench/.
func outDir() string {
	if _, err := os.Stat(filepath.Join("bench", "go.mod")); err == nil {
		return filepath.Join("bench", "out")
	}
	return "out"
}

func writeOutput(path string, f *outputFile) error {
	raw, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// runAll runs every workload, timed then traced, each in a child process of
// its own so peak memory and leaks are per workload.
func runAll(seed int64, seconds int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir(), 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(outDir(), "all-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	var all outputFile
	for _, wl := range workloads {
		for _, traced := range []int{0, 1} {
			part := filepath.Join(tmp, fmt.Sprintf("%s-%d.json", wl.Name, traced))
			cmd := exec.Command(self, "-workload", wl.Name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(traced), "-out", part)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s (trace %d): %w", wl.Name, traced, err)
			}
			f, err := readOutput(part)
			if err != nil {
				return err
			}
			all.Env = f.Env
			all.Runs = append(all.Runs, f.Runs...)
		}
	}
	if out != "" {
		return writeOutput(out, &all)
	}
	return nil
}

// printResult prints one run for a reader: every metric by name with its
// unit and sample count, then what failed and where the traced time went.
func printResult(w io.Writer, r *result) {
	fmt.Fprintf(w, "\n== %s  trace=%d seed=%d fabric=%s windows=%v out_fs=%s", r.Workload, r.Trace, r.Seed, r.Fabric, r.Windows, r.OutFS)
	fmt.Fprintf(w, "\n   commit=%s %s GOMAXPROCS=%d nproc=%d cpu=%q kernel=%s\n",
		r.Env.Commit, r.Env.GoVersion, r.Env.GOMAXPROCS, r.Env.NumCPU, r.Env.CPUModel, r.Env.Kernel)
	defs := endToEnd
	if r.Trace == 1 {
		defs = perLayer
	}
	for _, d := range defs {
		v := r.Metrics[d.Name]
		n := ""
		if v.N > 0 {
			n = fmt.Sprintf("n=%d", v.N)
		}
		fmt.Fprintf(w, "  %-42s %14.4f %-6s %s\n", d.Name, v.Value, v.Unit, n)
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d correct=%v valid=%v %s\n", r.Attempted, r.Failed, r.Correct, r.Valid, r.Invalid)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
	printBudget(w, r.Workload, r.Budget)
}

const defaultSeconds = 20

// checkManifest fails when the BENCHMARK.json at path declares anything but
// what this binary reports. Every run from a checkout's root checks it: the
// benchmark's tests do too, but the repository's own `go test ./...` does
// not reach this module.
func checkManifest(path string) error {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil // not started from a checkout's root
	}
	if err != nil {
		return err
	}
	var onDisk, declared any
	if err := json.Unmarshal(raw, &onDisk); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if err := json.Unmarshal([]byte(benchmarkJSON()), &declared); err != nil {
		return err
	}
	if !reflect.DeepEqual(onDisk, declared) {
		return fmt.Errorf("BENCHMARK.json differs from what this binary declares; regenerate it with: bash bench/run.sh -manifest > BENCHMARK.json")
	}
	return nil
}

// benchmarkJSON renders BENCHMARK.json from the declarations, so the file
// and the binary cannot drift apart unnoticed (checkManifest compares them).
func benchmarkJSON() string {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	type gated struct {
		layer
		Bound float64 `json:"bound"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []gated  `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: defaultSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, d := range driverEndToEnd() {
		doc.EndToEnd = append(doc.EndToEnd, gated{layer{d.Name, d.Unit, d.Better}, d.Driver})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err)
	}
	return string(raw)
}
