package main

import (
	"runtime"
	"time"

	"comfort/internal/campaign"
	"comfort/internal/engines"
	"comfort/internal/fuzzers"
)

// campaign-comfort is the headline shape: the fuzzer, testbed set and
// campaign call of campaign.ThroughputProbe (BenchmarkCampaignThroughput,
// cmd/benchgate), repeated over several seeds derived from --seed.
var campaignComfort = &workload{
	name:   "campaign-comfort",
	setup:  func(o *options) (any, error) { return setupCampaigns(o, false), nil },
	run:    func(o *options, st any, setupS float64) (*report, error) { return st.(*campaigns).run(o, setupS) },
	traced: func(o *options, st any) (*report, error) { return st.(*campaigns).traced(o) },
}

// figure8 is the paper's equal-budget comparison: all six fuzzers over
// the 18 Figure-8 testbeds with witness reduction on, one round per seed.
var figure8 = &workload{
	name:   "figure8",
	setup:  func(o *options) (any, error) { return setupCampaigns(o, true), nil },
	run:    func(o *options, st any, setupS float64) (*report, error) { return st.(*campaigns).run(o, setupS) },
	traced: func(o *options, st any) (*report, error) { return st.(*campaigns).traced(o) },
}

// campaigns is the state of a campaign workload. One round runs one
// campaign per fuzzer at one seed; one cycle runs a round per seed.
type campaigns struct {
	figure8  bool
	testbeds []engines.Testbed
	// comfort is the campaign-comfort fuzzer, shared by all its rounds
	// (COMFORT is a pure, forkable generator). Figure-8 rounds construct
	// fresh fuzzers instead, as campaign.Figure8With does: DIE and
	// Montage evolve their state with every batch.
	comfort fuzzers.Fuzzer
	cases   int
	seeds   []int64
	workers int
	// want[k][i] is the expected digest of fuzzer i's campaign at seeds[k].
	want [][]digest
}

// setupCampaigns is the workload's cold set-up: fuzzer construction (LM
// training included), the testbed list and testbed preparation.
func setupCampaigns(o *options, fig8 bool) *campaigns {
	c := &campaigns{figure8: fig8, workers: runtime.NumCPU()}
	nSeeds := 16
	if fig8 {
		c.testbeds = figure8Testbeds()
		c.cases = 100
		nSeeds = 4
		_ = fuzzers.All()
	} else {
		c.testbeds = engines.Testbeds()
		c.cases = 120
		c.comfort = fuzzers.NewComfort()
	}
	if o.tiny {
		c.cases, nSeeds = 6, 1
	}
	for _, tb := range c.testbeds {
		tb.Prepare()
	}
	for k := 0; k < nSeeds; k++ {
		c.seeds = append(c.seeds, deriveSeed(o.seed, k))
	}
	return c
}

// figure8Testbeds rebuilds the Figure-8 testbed list from the engines
// API: the version with the most seeded defects of every engine except
// Nashorn, in normal and strict mode.
func figure8Testbeds() []engines.Testbed {
	var out []engines.Testbed
	for _, e := range engines.All() {
		if e.Name == "Nashorn" {
			continue
		}
		best := e.Latest()
		bestN := len(engines.ActiveDefects(best))
		for _, v := range e.Versions {
			if n := len(engines.ActiveDefects(v)); n > bestN {
				best, bestN = v, n
			}
		}
		out = append(out, engines.Testbed{Version: best}, engines.Testbed{Version: best, Strict: true})
	}
	return out
}

func (c *campaigns) roundFuzzers() []fuzzers.Fuzzer {
	if c.figure8 {
		return fuzzers.All()
	}
	return []fuzzers.Fuzzer{c.comfort}
}

func (c *campaigns) config(f fuzzers.Fuzzer, seed int64) campaign.Config {
	return campaign.Config{
		Fuzzer: f, Testbeds: c.testbeds, Cases: c.cases, Seed: seed,
		Workers: c.workers, ReduceWitnesses: c.figure8,
		ProgressEvery: max(1, c.cases/4),
	}
}

// expected computes every round's expected digests on the independent
// tree-walking, dictionary-layout path. Reduction never changes what a
// campaign finds, so the reference skips it.
func (c *campaigns) expected() {
	if c.want != nil {
		return
	}
	for _, seed := range c.seeds {
		var ds []digest
		for _, f := range c.roundFuzzers() {
			cfg := c.config(f, seed)
			cfg.ReduceWitnesses = false
			cfg.DisableCompile, cfg.DisableShapes = true, true
			cfg.ProgressEvery = 0
			ds = append(ds, resultDigest(campaign.Run(cfg)))
		}
		c.want = append(c.want, ds)
	}
}

// jobStat is one campaign run ("job") of a campaign workload.
type jobStat struct {
	latency, firstSample        float64 // ms from the Run call
	execsPerS                   float64
	allocsPerExec, cpuUSPerExec float64
	counters                    counters
	ok                          bool
}

// loopStats aggregates a timed loop of cycles. Throughput and cost are
// taken per campaign and summarised by their median over campaigns: a
// few campaigns of a round can cost ten times the others (a DIE case
// that runs out of fuel on every testbed), and whether a seed draws one
// would otherwise decide a run's throughput.
type loopStats struct {
	jobs              []jobStat
	attempted, failed int
	wall              time.Duration
	peakMB            float64
}

// medianOf returns the median over the loop's campaigns of f.
func (ls *loopStats) medianOf(f func(j *jobStat) float64) float64 {
	xs := make([]float64, len(ls.jobs))
	for i := range ls.jobs {
		xs[i] = f(&ls.jobs[i])
	}
	return median(xs)
}

// runJob runs one campaign and checks its digest. With a tracer, the
// campaign is a span — a child of the figure-8 round span round, or a
// root when round is 0 — and generation, slot and reduction spans hang
// off it.
func (c *campaigns) runJob(o *options, f fuzzers.Fuzzer, seed int64, want digest,
	tr *tracer, gate *timingGate, round int64) jobStat {
	cfg := c.config(f, seed)
	var id, trace int64
	if tr != nil {
		id = tr.begin("campaign", round, round)
		trace = tr.traceOf(id)
		gate.cur.Store(id)
		cfg.Fuzzer = probe(f, &genProbe{tr: tr, trace: trace, parent: id})
		cfg.Gate = gate
	}
	var first time.Duration
	finalNS := int64(-1) // tracer time of the final progress sample
	start := time.Now()
	cfg.Progress = func(p campaign.Progress) {
		if first == 0 && p.Done > 0 {
			first = time.Since(start)
		}
		if p.Done == p.Total && tr != nil {
			finalNS = tr.now()
		}
	}
	m0, cpu0 := readMem(), cpuTime()
	res := campaign.Run(cfg)
	lat := time.Since(start)
	allocs, cpu := readMem().allocs-m0.allocs, cpuTime()-cpu0
	if tr != nil {
		if finalNS >= 0 {
			tr.add("reduce.tail", trace, id, finalNS, tr.now())
		}
		tr.end(id)
	}
	return jobStat{
		latency: ms(lat), firstSample: ms(first),
		execsPerS:     float64(res.Executed) / lat.Seconds(),
		allocsPerExec: float64(allocs) / float64(max(res.Executed, 1)),
		cpuUSPerExec:  perCall(cpu, res.Executed, time.Microsecond),
		counters:      resultCounters(res),
		ok:            resultDigest(res) == o.expect(want) && res.CasesRun == c.cases,
	}
}

// loop runs whole cycles until seconds have passed (at least one), so
// every seed weighs the same.
func (c *campaigns) loop(o *options, seconds float64, tr *tracer, gate *timingGate) *loopStats {
	ls := &loopStats{}
	heap := startHeapWatch()
	t0 := time.Now()
	for len(ls.jobs) == 0 || time.Since(t0).Seconds() < seconds {
		for k, seed := range c.seeds {
			var round, built int64
			traceRound := tr != nil && c.figure8
			if traceRound {
				round = tr.begin("figure8.round", 0, 0)
				built = tr.now()
			}
			fs := c.roundFuzzers()
			if traceRound {
				tr.add("fuzzers.construct", round, round, built, tr.now())
			}
			for i, f := range fs {
				js := c.runJob(o, f, seed, c.want[k][i], tr, gate, round)
				ls.jobs = append(ls.jobs, js)
				ls.attempted += c.cases
				if !js.ok {
					ls.failed += c.cases
				}
			}
			if traceRound {
				tr.end(round)
			}
		}
	}
	ls.wall = time.Since(t0)
	ls.peakMB = heap.done()
	return ls
}

func (c *campaigns) run(o *options, setupS float64) (*report, error) {
	c.expected()
	ls := c.loop(o, o.seconds, nil, nil)
	var lat, first []float64
	for _, j := range ls.jobs {
		lat = append(lat, j.latency)
		first = append(first, j.firstSample)
	}
	latencyLine(o.out, "job_latency_ms", lat)
	latencyLine(o.out, "first_sample_ms", first)
	return &report{
		Correct: ls.failed == 0, Attempted: ls.attempted, Failed: ls.failed,
		Metrics: map[string]metric{
			"setup_s":             {setupS, "s"},
			"execs_per_s":         {ls.medianOf(func(j *jobStat) float64 { return j.execsPerS }), "1/s"},
			"allocs_per_exec":     {ls.medianOf(func(j *jobStat) float64 { return j.allocsPerExec }), "count"},
			"cpu_us_per_exec":     {ls.medianOf(func(j *jobStat) float64 { return j.cpuUSPerExec }), "us"},
			"peak_heap_mb":        {ls.peakMB, "MB"},
			"jobs_per_s":          {ls.medianOf(func(j *jobStat) float64 { return 1000 / j.latency }), "1/s"},
			"job_latency_p50_ms":  {quantile(lat, 0.5), "ms"},
			"job_latency_p90_ms":  {quantile(lat, 0.9), "ms"},
			"first_sample_p50_ms": {quantile(first, 0.5), "ms"},
		},
	}, nil
}
