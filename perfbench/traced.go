package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"comfort/internal/engines"
	"comfort/internal/fuzzers"
)

// unitOf names a metric's unit; perLayerMetrics is printed in full by
// every traced run, with 0 where a layer has no seam on that workload.
type unitOf struct{ name, unit string }

var endToEndMetrics = []unitOf{
	{"setup_s", "s"}, {"execs_per_s", "1/s"}, {"allocs_per_exec", "count"}, {"cpu_us_per_exec", "us"},
	{"peak_heap_mb", "MB"}, {"jobs_per_s", "1/s"},
	{"job_latency_p50_ms", "ms"}, {"job_latency_p90_ms", "ms"},
	{"first_sample_p50_ms", "ms"},
}

var perLayerMetrics = []unitOf{
	{"fuzzers.gen_busy_s", "s"}, {"fuzzers.gen_us_per_case", "us"}, {"fuzzers.gen_allocs_per_case", "count"},
	{"fuzzers.lookup_ms", "ms"}, {"fuzzers.construct_ms", "ms"},
	{"engines.prepare_ms", "ms"}, {"engines.attribute_calls", "count"},
	{"engines.attribute_ms_per_call", "ms"}, {"engines.attribute_useful_ratio", "ratio"},
	{"exec.physical_runs", "count"}, {"exec.classes", "count"}, {"exec.slot_busy_s", "s"},
	{"exec.slot_busy_share", "ratio"}, {"exec.us_per_run", "us"}, {"exec.cache_hit_ratio", "ratio"},
	{"exec.compiled_ratio", "ratio"}, {"exec.early_skip_ratio", "ratio"}, {"exec.panics", "count"},
	{"exec.wall_timeouts", "count"}, {"exec.slot_wait_s", "s"},
	{"frontend.us_per_parse", "us"}, {"frontend.allocs_per_parse", "count"},
	{"realm.us_per_realm", "us"}, {"realm.allocs_per_realm", "count"},
	{"eval.us_per_run", "us"}, {"eval.allocs_per_run", "count"},
	{"difftest.classify_us_per_case", "us"}, {"difftest.classify_allocs_per_case", "count"},
	{"dedup.lookups", "count"}, {"dedup.filtered_ratio", "ratio"}, {"dedup.us_per_lookup", "us"},
	{"reduce.tail_s", "s"}, {"reduce.predicate_calls", "count"}, {"reduce.bytes_ratio", "ratio"},
	{"campaign.ckpt_writes", "count"}, {"campaign.ckpt_write_ms", "ms"}, {"campaign.ckpt_bytes", "bytes"},
	{"campaign.self_s", "s"},
	{"server.submit_ms", "ms"}, {"server.queue_wait_ms", "ms"}, {"server.start_ms", "ms"}, {"server.run_ms", "ms"},
	{"server.store_write_ms", "ms"}, {"server.sse_samples_per_job", "count"}, {"server.validate_ms", "ms"},
	{"gc.cycles", "count"}, {"gc.pause_ms", "ms"}, {"gc.alloc_mb", "MB"},
	{"trace.overhead_pct", "%"}, {"trace.spans", "count"},
}

// gcWindow measures the Go runtime's GC layer over an interval.
type gcWindow struct {
	m0 memCounters
	s0 runtime.MemStats
}

func startGC() *gcWindow {
	g := &gcWindow{m0: readMem()}
	runtime.ReadMemStats(&g.s0)
	return g
}

func (g *gcWindow) put(m map[string]metric) {
	m1 := readMem()
	var s1 runtime.MemStats
	runtime.ReadMemStats(&s1)
	m["gc.cycles"] = metric{float64(m1.gcCycles - g.m0.gcCycles), "count"}
	m["gc.pause_ms"] = metric{float64(s1.PauseTotalNs-g.s0.PauseTotalNs) / 1e6, "ms"}
	m["gc.alloc_mb"] = metric{float64(m1.allocBytes-g.m0.allocBytes) / (1 << 20), "MB"}
}

// finishTrace writes the spans, adds the trace's own metrics and fills
// every per-layer metric the workload has no seam for with 0.
func finishTrace(o *options, tr *tracer, m map[string]metric, overheadPct float64) error {
	dir := filepath.Join(o.workDir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	fmt.Fprintln(o.out, "spans:", path)
	m["trace.spans"] = metric{float64(len(tr.spans)), "count"}
	m["trace.overhead_pct"] = metric{overheadPct, "%"}
	for _, u := range perLayerMetrics {
		if _, ok := m[u.name]; !ok {
			m[u.name] = metric{0, u.unit}
		}
	}
	return nil
}

// traced measures half the time untraced and half traced (the difference
// is the tracing overhead), then replays the workload's cases.
func (c *campaigns) traced(o *options) (*report, error) {
	c.expected()
	plain := c.loop(o, o.seconds/2, nil, nil)
	tr := newTracer()
	gate := newTimingGate(c.workers, tr)
	gw := startGC()
	ls := c.loop(o, o.seconds/2, tr, gate)
	m := map[string]metric{}
	gw.put(m)

	lt := tr.layers()
	runs := gate.runs.Load()
	busy := time.Duration(gate.busyNS.Load())
	var cs counters
	for _, j := range ls.jobs {
		cs.add(j.counters)
	}
	cs.put(m)
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	put("fuzzers.gen_busy_s", lt.total["fuzzers.next"].Seconds(), "s")
	put("exec.physical_runs", float64(runs), "count")
	put("exec.slot_busy_s", busy.Seconds(), "s")
	put("exec.slot_busy_share", busy.Seconds()/(ls.wall.Seconds()*float64(c.workers)), "ratio")
	put("exec.us_per_run", perCall(busy, int(runs), time.Microsecond), "us")
	put("exec.slot_wait_s", time.Duration(gate.waitNS.Load()).Seconds(), "s")
	put("reduce.tail_s", lt.total["reduce.tail"].Seconds(), "s")
	put("campaign.self_s", lt.self["campaign"].Seconds(), "s")
	fmt.Fprintf(o.out, "layers: wall=%.3fs workers=%d slot_busy=%.3fs gen=%.3fs campaign_self=%.3fs reduce_tail=%.3fs\n",
		ls.wall.Seconds(), c.workers, busy.Seconds(), lt.total["fuzzers.next"].Seconds(),
		lt.self["campaign"].Seconds(), lt.total["reduce.tail"].Seconds())

	perCase := 60
	if c.figure8 {
		perCase = 10
	}
	if o.tiny {
		perCase = 3
	}
	in := replayInput{fuzzers: c.roundFuzzers, testbeds: c.testbeds, seed: c.seeds[0], cases: perCase}
	if err := replay(o, in, m); err != nil {
		return nil, err
	}
	rate := func(l *loopStats) float64 { return l.medianOf(func(j *jobStat) float64 { return j.execsPerS }) }
	overhead := (rate(plain)/rate(ls) - 1) * 100
	if err := finishTrace(o, tr, m, overhead); err != nil {
		return nil, err
	}
	failed := plain.failed + ls.failed
	return &report{Correct: failed == 0, Attempted: plain.attempted + ls.attempted, Failed: failed, Metrics: m}, nil
}

// traced runs the job loop untraced and traced for half the time each,
// then replays COMFORT cases over the jobs' testbeds. The server owns its
// execution gate and fuzzers, so generation and slot metrics come from
// the scheduler counters its event stream carries, or are 0.
func (j *jobs) traced(o *options) (*report, error) {
	j.expected()
	plain := j.loop(o, o.seconds/2, nil)
	tr := newTracer()
	gw := startGC()
	jl := j.loop(o, o.seconds/2, tr)
	m := map[string]metric{}
	gw.put(m)

	var submit, queue, start, runMS []float64
	var samples, ok int
	var cs counters
	for _, r := range jl.recs {
		if !r.ok {
			continue
		}
		ok++
		submit = append(submit, ms(r.submit))
		queue = append(queue, ms(r.running-r.submit))
		start = append(start, ms(r.firstSample-r.running))
		runMS = append(runMS, ms(r.done-r.firstSample))
		samples += r.samples
		cs.add(r.last.counters)
	}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	put("server.submit_ms", median(submit), "ms")
	put("server.queue_wait_ms", median(queue), "ms")
	put("server.start_ms", median(start), "ms")
	put("server.run_ms", median(runMS), "ms")
	put("server.sse_samples_per_job", ratio(samples, ok), "count")
	cs.put(m)
	put("exec.physical_runs", float64(cs.Compiled+cs.Fallback+cs.EarlyErrorSkips), "count")
	lt := tr.layers()
	fmt.Fprintf(o.out, "layers: jobs=%d job_self=%.3fs submit=%.3fs queue=%.3fs start=%.3fs run=%.3fs fetch=%.3fs\n",
		ok, lt.self["job"].Seconds(), lt.total["server.submit"].Seconds(), lt.total["server.queue_wait"].Seconds(),
		lt.total["server.start"].Seconds(), lt.total["server.run"].Seconds(), lt.total["server.result_fetch"].Seconds())

	sp := j.specs[0]
	in := replayInput{
		fuzzers:  func() []fuzzers.Fuzzer { return []fuzzers.Fuzzer{fuzzers.NewComfort()} },
		testbeds: engines.Testbeds()[:sp.TestbedLimit], seed: sp.Seed, cases: 4 * sp.Cases,
	}
	if err := replay(o, in, m); err != nil {
		return nil, err
	}
	rate := func(l *jobLoop) float64 { return float64(len(l.recs)) / l.wall.Seconds() }
	if err := finishTrace(o, tr, m, (rate(plain)/rate(jl)-1)*100); err != nil {
		return nil, err
	}
	a1, f1 := plain.failures()
	a2, f2 := jl.failures()
	return &report{Correct: f1+f2 == 0, Attempted: a1 + a2, Failed: f1 + f2, Metrics: m}, nil
}
