package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"comfort/internal/campaign"
	"comfort/internal/dedup"
	"comfort/internal/difftest"
	"comfort/internal/engines"
	"comfort/internal/fuzzers"
	"comfort/internal/js/ast"
	"comfort/internal/reduce"
	"comfort/internal/server"
	"comfort/internal/spec"
)

// replayInput is what the layer replay feeds through the layers: the
// workload's fuzzers, testbeds and seed.
type replayInput struct {
	fuzzers  func() []fuzzers.Fuzzer
	testbeds []engines.Testbed
	seed     int64
	// cases is the number of generated cases per fuzzer.
	cases int
}

// bulk runs f once and returns its wall time and allocation count. Every
// layer is measured as one bulk pass over its inputs: per-call readings
// would cost more than the calls.
func bulk(f func()) (time.Duration, float64) {
	m0 := readMem()
	t := time.Now()
	f()
	d := time.Since(t)
	return d, float64(readMem().allocs - m0.allocs)
}

func perCall(d time.Duration, n int, unit time.Duration) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(unit) / float64(n)
}

// replay feeds the workload's own generated cases, single-threaded,
// through each layer's public functions and adds the per-call costs to m.
func replay(o *options, in replayInput, m map[string]metric) error {
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	us, msec := time.Microsecond, time.Millisecond

	// fuzzers: construction in a warm process, then generation.
	var fs []fuzzers.Fuzzer
	d, _ := bulk(func() { fs = in.fuzzers() })
	put("fuzzers.construct_ms", ms(d), "ms")
	var srcs []string
	d, allocs := bulk(func() {
		for _, f := range fs {
			rng := rand.New(rand.NewSource(in.seed))
			for n := 0; n < in.cases; {
				for _, src := range f.Next(rng) {
					if n < in.cases {
						srcs = append(srcs, src)
						n++
					}
				}
			}
		}
	})
	put("fuzzers.gen_us_per_case", perCall(d, len(srcs), us), "us")
	put("fuzzers.gen_allocs_per_case", allocs/float64(len(srcs)), "count")
	const lookups = 3
	d, _ = bulk(func() {
		for i := 0; i < lookups; i++ {
			fuzzers.ByName("COMFORT")
		}
	})
	put("fuzzers.lookup_ms", perCall(d, lookups, msec), "ms")

	// engines: preparation, and behaviour classes (one representative per
	// BehaviorKey, in testbed order, as the scheduler groups them).
	var preps []*engines.PreparedTestbed
	d, _ = bulk(func() {
		for _, tb := range in.testbeds {
			preps = append(preps, tb.Prepare())
		}
	})
	put("engines.prepare_ms", ms(d), "ms")
	classOf := make([]int, len(preps))
	var reps []*engines.PreparedTestbed
	byKey := map[string]int{}
	for i, p := range preps {
		k, ok := byKey[p.BehaviorKey()]
		if !ok {
			k = len(reps)
			byKey[p.BehaviorKey()] = k
			reps = append(reps, p)
		}
		classOf[i] = k
	}
	put("exec.classes", float64(len(reps)), "count")

	// front end: parse, resolve, compile and analyze once per (case,
	// parser-option fingerprint), as the scheduler's cache does.
	type parsed struct {
		prog *ast.Program
		err  error
	}
	progs := map[uint64]map[string]parsed{}
	for _, p := range reps {
		progs[p.ParseFingerprint()] = map[string]parsed{}
	}
	parses := 0
	d, allocs = bulk(func() {
		for fp, cache := range progs {
			p := repFor(reps, fp)
			for _, src := range srcs {
				if _, ok := cache[src]; !ok {
					prog, err := p.Parse(src)
					cache[src] = parsed{prog, err}
					parses++
				}
			}
		}
	})
	for fp, cache := range progs {
		prog, err := repFor(reps, fp).Parse("")
		cache[""] = parsed{prog, err}
	}
	put("frontend.us_per_parse", perCall(d, parses, us), "us")
	put("frontend.allocs_per_parse", allocs/float64(parses), "count")
	cached := func(p *engines.PreparedTestbed, src string) (*ast.Program, error) {
		r := progs[p.ParseFingerprint()][src]
		return r.prog, r.err
	}
	opts := engines.RunOptions{Fuel: difftest.DefaultFuel, Seed: in.seed}

	// realm construction: the empty program on every class representative.
	const realmReps = 20
	d, allocs = bulk(func() {
		for i := 0; i < realmReps; i++ {
			for _, p := range reps {
				difftest.RunCell(p, "", cached, opts)
			}
		}
	})
	realmUS := perCall(d, realmReps*len(reps), us)
	realmAllocs := allocs / float64(realmReps*len(reps))
	put("realm.us_per_realm", realmUS, "us")
	put("realm.allocs_per_realm", realmAllocs, "count")

	// evaluation: every (case, class) cell, minus a realm for each cell
	// that reached the interpreter (parse and early errors build none).
	results := make([][]engines.ExecResult, len(srcs))
	d, allocs = bulk(func() {
		for i, src := range srcs {
			results[i] = make([]engines.ExecResult, len(reps))
			for k, p := range reps {
				results[i][k] = difftest.RunCell(p, src, cached, opts)
			}
		}
	})
	ran := 0
	for _, rs := range results {
		for _, r := range rs {
			if r.Outcome != engines.OutcomeParseError {
				ran++
			}
		}
	}
	put("eval.us_per_run", perCall(d-time.Duration(float64(ran)*realmUS*float64(us)), ran, us), "us")
	put("eval.allocs_per_run", (allocs-float64(ran)*realmAllocs)/float64(max(ran, 1)), "count")

	// difftest: classification of each case's full testbed grid.
	entries := make([][]difftest.ExecEntry, len(srcs))
	for i := range srcs {
		for t, tb := range in.testbeds {
			entries[i] = append(entries[i], difftest.ExecEntry{Testbed: tb, Result: results[i][classOf[t]]})
		}
	}
	crs := make([]difftest.CaseResult, len(srcs))
	d, allocs = bulk(func() {
		for i := range srcs {
			crs[i] = difftest.Classify(entries[i])
		}
	})
	put("difftest.classify_us_per_case", perCall(d, len(srcs), us), "us")
	put("difftest.classify_allocs_per_case", allocs/float64(len(srcs)), "count")

	// dedup: the Figure-6 tree over every deviation of every buggy case.
	type fresh struct {
		src string
		dev difftest.Deviation
	}
	var novel []fresh
	tree := dedup.New(dedup.KnownAPIsFromSpec(spec.Default().Names()))
	lookupsN, filtered := 0, 0
	d, _ = bulk(func() {
		for i, cr := range crs {
			if !cr.Verdict.IsBuggy() {
				continue
			}
			api := tree.APIOf(srcs[i])
			for _, dev := range cr.Deviations {
				lookupsN++
				class := dedup.BehaviourClass(dev.Result.Outcome.String(), dev.Result.ErrName, dev.Result.Output)
				if tree.SeenOrAdd(dev.Testbed.Version.Engine, api, class) {
					filtered++
				} else {
					novel = append(novel, fresh{srcs[i], dev})
				}
			}
		}
	})
	put("dedup.lookups", float64(lookupsN), "count")
	put("dedup.filtered_ratio", ratio(filtered, lookupsN), "ratio")
	put("dedup.us_per_lookup", perCall(d, lookupsN, us), "us")

	// engines: attribution of the deviations dedup let through.
	const maxAttribute = 40
	if len(novel) > maxAttribute {
		novel = novel[:maxAttribute]
	}
	type witness struct {
		src    string
		defect *engines.Defect
		strict bool
	}
	var witnesses []witness
	seen := map[string]bool{}
	useful := 0
	d, _ = bulk(func() {
		for _, n := range novel {
			ds := engines.Attribute(n.src, n.dev.Testbed, opts)
			if len(ds) > 0 {
				useful++
			}
			for _, def := range ds {
				if !seen[def.ID] {
					seen[def.ID] = true
					witnesses = append(witnesses, witness{n.src, def, n.dev.Testbed.Strict})
				}
			}
		}
	})
	put("engines.attribute_calls", float64(len(novel)), "count")
	put("engines.attribute_ms_per_call", perCall(d, len(novel), msec), "ms")
	put("engines.attribute_useful_ratio", ratio(useful, len(novel)), "ratio")

	// reduce: parallel ddmin, one worker, over the single-defect
	// divergence predicate, for the first two witnesses.
	const maxReduce = 2
	if len(witnesses) > maxReduce {
		witnesses = witnesses[:maxReduce]
	}
	var calls atomic.Int64
	orig, reduced := 0, 0
	for _, w := range witnesses {
		pred := engines.DivergesRunners(engines.NewDefectRunner(w.defect, w.strict),
			engines.NewDefectRunner(nil, w.strict), opts)
		out := reduce.Parallel(w.src, func(src string) bool {
			calls.Add(1)
			return pred(src)
		}, reduce.Options{Workers: 1})
		orig += len(w.src)
		reduced += len(out)
	}
	put("reduce.predicate_calls", float64(calls.Load()), "count")
	put("reduce.bytes_ratio", ratio(reduced, orig), "ratio")

	return replayStorage(o, in, fs[0], m)
}

// replayStorage measures the persistence layers: checkpoint writes of a
// small campaign's states, spec validation and job-store writes.
func replayStorage(o *options, in replayInput, f fuzzers.Fuzzer, m map[string]metric) error {
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	dir, err := os.MkdirTemp(o.workDir, "replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	var states []*campaign.State
	campaign.Run(campaign.Config{
		Fuzzer: f, Testbeds: in.testbeds, Cases: 16, Seed: in.seed, Workers: 1,
		CheckpointEvery: 4,
		WriteCheckpoint: func(st *campaign.State) error {
			states = append(states, st)
			return nil
		},
	})
	path := filepath.Join(dir, "checkpoint.ckpt")
	var werr error
	d, _ := bulk(func() {
		for _, st := range states {
			if err := campaign.WriteState(path, st); err != nil {
				werr = err
			}
		}
	})
	if werr != nil {
		return fmt.Errorf("replay checkpoint write: %w", werr)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	put("campaign.ckpt_write_ms", perCall(d, len(states), time.Millisecond), "ms")
	put("campaign.ckpt_bytes", float64(fi.Size()), "bytes")

	sp := server.Spec{Fuzzer: "COMFORT", Cases: 16, Seed: in.seed, TestbedLimit: 8, CheckpointEvery: 4}
	const validations = 3
	d, _ = bulk(func() {
		for i := 0; i < validations; i++ {
			if err := sp.Validate(); err != nil {
				werr = err
			}
		}
	})
	if werr != nil {
		return fmt.Errorf("replay spec validation: %w", werr)
	}
	put("server.validate_ms", perCall(d, validations, time.Millisecond), "ms")

	store, err := server.OpenStore(filepath.Join(dir, "store"))
	if err != nil {
		return err
	}
	const jobs = 20
	d, _ = bulk(func() {
		for i := 1; i <= jobs; i++ {
			st := server.Status{ID: fmt.Sprintf("job-%06d", i), Seq: i, State: server.StateQueued, CasesTotal: sp.Cases}
			if err := store.CreateJob(st, sp); err != nil {
				werr = err
			}
			st.State = server.StateRunning
			if err := store.WriteStatus(st); err != nil {
				werr = err
			}
		}
	})
	if werr != nil {
		return fmt.Errorf("replay store write: %w", werr)
	}
	put("server.store_write_ms", perCall(d, 2*jobs, time.Millisecond), "ms")
	return nil
}

func repFor(reps []*engines.PreparedTestbed, fp uint64) *engines.PreparedTestbed {
	for _, p := range reps {
		if p.ParseFingerprint() == fp {
			return p
		}
	}
	return nil
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
