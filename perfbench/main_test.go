package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"comfort/internal/fuzzers"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests check.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) *benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return &b
}

// runTiny runs one smoke-size invocation and returns its output lines
// and parsed result line.
func runTiny(t *testing.T, workload, trace string, extra ...string) ([]string, *report, string) {
	t.Helper()
	dir := t.TempDir()
	args := append([]string{"--workload", workload, "--seed", "3", "--seconds", "0.2",
		"--trace", trace, "--tiny", "--workdir", dir}, extra...)
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("%s --trace %s: %v\n%s", workload, trace, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("%s: result line: %v\n%s", workload, err, out.String())
	}
	return lines, &rep, dir
}

// TestBenchmarkJSONMatchesCode pins BENCHMARK.json's workloads and metric
// lists to the ones this program prints.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b := loadBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var code []string
	for _, w := range workloads {
		code = append(code, w.name)
	}
	if strings.Join(names, ",") != strings.Join(code, ",") {
		t.Errorf("workloads: BENCHMARK.json %v, code %v", names, code)
	}
	check := func(kind string, json []struct{ Name, Unit string }, code []unitOf) {
		if len(json) != len(code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, code %d", kind, len(json), len(code))
			return
		}
		for i, m := range json {
			if m.Name != code[i].name || m.Unit != code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), code %s (%s)", kind, i, m.Name, m.Unit, code[i].name, code[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEndMetrics)
	check("per_layer", b.PerLayer, perLayerMetrics)
}

// TestSmokeEveryWorkload runs every workload at smoke size, untraced and
// traced, and checks that every metric BENCHMARK.json names is printed
// with its unit and that the output checks pass.
func TestSmokeEveryWorkload(t *testing.T) {
	b := loadBenchmarkJSON(t)
	for _, w := range b.Workloads {
		for _, tc := range []struct {
			trace   string
			metrics []struct{ Name, Unit string }
		}{{"0", b.EndToEnd}, {"1", b.PerLayer}} {
			lines, rep, _ := runTiny(t, w.Name, tc.trace)
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s --trace %s: correct=%v attempted=%d failed=%d", w.Name, tc.trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			if len(rep.Metrics) != len(tc.metrics) {
				t.Errorf("%s --trace %s: %d metrics printed, want %d", w.Name, tc.trace, len(rep.Metrics), len(tc.metrics))
			}
			for _, m := range tc.metrics {
				got, ok := rep.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s --trace %s: metric %s = %+v (present %v), want unit %s", w.Name, tc.trace, m.Name, got, ok, m.Unit)
				}
			}
			if tc.trace == "0" && !strings.Contains(strings.Join(lines, "\n"), "job_latency_ms: n=") {
				t.Errorf("%s: latency sample count not printed", w.Name)
			}
		}
	}
}

// TestTracedSpansHaveKnownParents checks the traced run's span file:
// every line parses, and every span's parent and trace are known spans.
func TestTracedSpansHaveKnownParents(t *testing.T) {
	for _, w := range []string{"figure8", "jobs-small"} {
		_, _, dir := runTiny(t, w, "1")
		f, err := os.Open(filepath.Join(dir, "trace", w+"-seed3.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		var spans []span
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			var s span
			if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
				t.Fatalf("%s: span line %q: %v", w, sc.Text(), err)
			}
			spans = append(spans, s)
		}
		f.Close()
		if len(spans) == 0 {
			t.Fatalf("%s: no spans written", w)
		}
		byID := map[int64]span{}
		for _, s := range spans {
			byID[s.ID] = s
		}
		for _, s := range spans {
			if _, ok := byID[s.Parent]; s.Parent != 0 && !ok {
				t.Errorf("%s: span %+v has unknown parent", w, s)
			}
			if root, ok := byID[s.Trace]; !ok || root.Parent != 0 {
				t.Errorf("%s: span %+v has trace %d that is not a root span", w, s, s.Trace)
			}
			if s.End < s.Start {
				t.Errorf("%s: span %+v ends before it starts", w, s)
			}
		}
	}
}

// TestWrongExpectedDigestFailsEveryOperation corrupts the expected
// digests: every operation must then count as failed.
func TestWrongExpectedDigestFailsEveryOperation(t *testing.T) {
	for _, w := range workloads {
		_, rep, _ := runTiny(t, w.name, "0", "--corrupt-expected")
		if rep.Correct || rep.Attempted < 1 || rep.Failed != rep.Attempted {
			t.Errorf("%s: correct=%v attempted=%d failed=%d, want every operation failed",
				w.name, rep.Correct, rep.Attempted, rep.Failed)
		}
	}
}

// TestProbeKeepsFuzzerIdentity checks the generation wrapper keeps the
// wrapped fuzzer's name and Forkable-ness, so wrapping changes neither the
// campaign's fingerprint nor its generation path.
func TestProbeKeepsFuzzerIdentity(t *testing.T) {
	for _, f := range fuzzers.All() {
		p := probe(f, &genProbe{})
		if p.Name() != f.Name() {
			t.Errorf("probe(%s).Name() = %s", f.Name(), p.Name())
		}
		_, want := f.(fuzzers.Forkable)
		pf, got := p.(fuzzers.Forkable)
		if got != want {
			t.Errorf("probe(%s) Forkable = %v, want %v", f.Name(), got, want)
		}
		if got {
			if _, ok := pf.Fork(1).(*probedForkable); !ok {
				t.Errorf("probe(%s).Fork returned an unprobed fuzzer", f.Name())
			}
		}
	}
}

// TestCovered checks self time's interval union.
func TestCovered(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 150}, {Start: 50, End: -1}}
	if got := covered(parent, kids); got != 40 {
		t.Errorf("covered = %d, want 40", got)
	}
}
