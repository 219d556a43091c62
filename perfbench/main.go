// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It runs one workload for a fixed time, checks that the
// program's outputs are correct, and prints one JSON result line:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it prints the end-to-end metrics of BENCHMARK.json;
// with --trace 1 it runs the workload again with timing wrappers on the
// seams campaign.Config exposes, replays the workload's cases through each
// layer's public functions, and prints the per-layer metrics. DESIGN.md
// next to this file defines every metric and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	osexec "os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// options are the command-line inputs of one invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tiny shrinks every workload to smoke-test size (the benchmark's own
	// tests use it).
	tiny bool
	// corruptExpected perturbs every expected digest, so the output
	// checks must fail every operation (tested, never used in a real run).
	corruptExpected bool
	// setupOnly makes the process perform the workload's cold set-up and
	// print its duration; the parent re-executes itself with it to time
	// set-up in fresh processes.
	setupOnly bool
	// workDir is where job stores and trace files go.
	workDir string
	// out receives the progress lines and the result line.
	out io.Writer
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line: the contract's four keys.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one benchmark workload.
type workload struct {
	name string
	// setup performs the workload's cold set-up: everything before the
	// first timed input. It returns the state the run uses.
	setup func(o *options) (any, error)
	// run measures the workload for o.seconds and fills the end-to-end
	// report.
	run func(o *options, state any, setupS float64) (*report, error)
	// traced runs the workload with tracing and the layer replay and
	// fills the per-layer report.
	traced func(o *options, state any) (*report, error)
	// close releases what setup started (nil when nothing needs it).
	close func(state any)
}

var workloads = []*workload{campaignComfort, figure8, jobsSmall}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func parseOptions(args []string, out io.Writer) (*options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	o := &options{out: out}
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured time per run")
	fs.IntVar(&trace, "trace", 0, "1 prints per-layer metrics from a traced run")
	fs.BoolVar(&o.tiny, "tiny", false, "smoke-test sizes")
	fs.BoolVar(&o.corruptExpected, "corrupt-expected", false, "perturb expected digests (tests the output checks)")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "time one cold set-up and exit")
	fs.StringVar(&o.workDir, "workdir", ".bench_build", "directory for job stores and trace files")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if trace != 0 && trace != 1 {
		return nil, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	return o, nil
}

func run(args []string, out io.Writer) error {
	o, err := parseOptions(args, out)
	if err != nil {
		return err
	}
	w := workloadByName(o.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return err
	}

	start := time.Now()
	state, err := w.setup(o)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	setupS := time.Since(start).Seconds()
	if w.close != nil {
		defer w.close(state)
	}
	if o.setupOnly {
		fmt.Fprintf(o.out, "setup_s %v\n", setupS)
		return nil
	}

	var rep *report
	if o.trace {
		rep, err = w.traced(o, state)
	} else {
		var setups []float64
		setups, err = coldSetups(o, 4)
		if err != nil {
			return err
		}
		rep, err = w.run(o, state, median(append(setups, setupS)))
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Fprintln(o.out, string(line))
	return nil
}

// coldSetups times n more cold set-ups of the workload, each in a fresh
// process, so one-time work a process caches (trained models, memoised
// inventories) is paid by every sample.
func coldSetups(o *options, n int) ([]float64, error) {
	if o.tiny {
		return nil, nil
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		cmd := osexec.Command(self, "--setup-only", "--workload", o.workload,
			"--seed", strconv.FormatInt(o.seed, 10), "--workdir", o.workDir)
		data, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("cold setup: %w", err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		f := strings.Fields(lines[len(lines)-1])
		if len(f) != 2 || f[0] != "setup_s" {
			return nil, fmt.Errorf("cold setup: unexpected output %q", data)
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return nil, fmt.Errorf("cold setup: %w", err)
		}
		out = append(out, v)
	}
	return out, nil
}
