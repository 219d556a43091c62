package campaign

import (
	"fmt"
	"math/rand"
	"testing"

	"comfort/internal/engines"
	"comfort/internal/fuzzers"
	"comfort/internal/js/resolve"
)

// oracleTestbeds picks a behaviour-diverse testbed subset: the defect-free
// reference in both modes plus the oldest (defect-richest) and newest
// version of every engine family, both modes each.
func oracleTestbeds() []engines.Testbed {
	tbs := []engines.Testbed{
		engines.ReferenceTestbed(false),
		engines.ReferenceTestbed(true),
	}
	for _, e := range engines.All() {
		for _, v := range []engines.Version{e.Versions[0], e.Latest()} {
			tbs = append(tbs, engines.Testbed{Version: v, Strict: false})
			tbs = append(tbs, engines.Testbed{Version: v, Strict: true})
		}
	}
	return tbs
}

// TestEvaluatorOracle is the differential oracle for the resolve-once
// interpreter: every program the six fuzzers generate from fixed seeds must
// produce byte-identical ExecResults — output, outcome, error rendering and
// fuel consumption — whether it executes on the slot-indexed path or the
// legacy map-scope path, across defect-laden and reference testbeds in both
// modes.
func TestEvaluatorOracle(t *testing.T) {
	tbs := oracleTestbeds()
	prepared := make([]*engines.PreparedTestbed, len(tbs))
	for i, tb := range tbs {
		prepared[i] = tb.Prepare()
	}
	opts := engines.RunOptions{Fuel: 150000, Seed: 9}
	const perFuzzer = 25
	for fi, f := range fuzzers.All() {
		rng := rand.New(rand.NewSource(int64(100 + fi)))
		var cases []string
		for len(cases) < perFuzzer {
			batch := f.Next(rng)
			if len(batch) == 0 {
				break
			}
			cases = append(cases, batch...)
		}
		if len(cases) > perFuzzer {
			cases = cases[:perFuzzer]
		}
		for ci, src := range cases {
			for _, p := range prepared {
				if msg := p.PreParseError(src); msg != "" {
					continue // identical gate on both paths
				}
				rProg, rErr := p.Parse(src)
				resolvedRes := p.ExecParsed(rProg, rErr, opts)
				mProg, mErr := engines.Mode{DisableResolve: true}.Parse(src, p.ParseOptions())
				mapRes := p.ExecParsed(mProg, mErr, opts)
				if resolvedRes.Semantics() != mapRes.Semantics() {
					t.Fatalf("%s case %d on %s: evaluator paths diverge\nresolved: %+v\nmap:      %+v\nprogram:\n%s",
						f.Name(), ci, p.Testbed.ID(), resolvedRes, mapRes, src)
				}
			}
		}
	}
}

// TestCompiledOracle is the differential oracle for the compile-once thunk
// evaluator: every program the six fuzzers generate from fixed seeds must
// produce byte-identical ExecResults — output, outcome, error rendering
// and fuel consumption — whether it executes through compiled closure
// thunks or the (resolved) tree walker, across defect-laden and reference
// testbeds in both modes. One shared program object serves both paths,
// exactly as the scheduler cache shares it.
func TestCompiledOracle(t *testing.T) {
	tbs := oracleTestbeds()
	prepared := make([]*engines.PreparedTestbed, len(tbs))
	for i, tb := range tbs {
		prepared[i] = tb.Prepare()
	}
	opts := engines.RunOptions{Fuel: 150000, Seed: 9}
	treeOpts := opts
	treeOpts.DisableCompile = true
	const perFuzzer = 25
	for fi, f := range fuzzers.All() {
		rng := rand.New(rand.NewSource(int64(100 + fi)))
		var cases []string
		for len(cases) < perFuzzer {
			batch := f.Next(rng)
			if len(batch) == 0 {
				break
			}
			cases = append(cases, batch...)
		}
		if len(cases) > perFuzzer {
			cases = cases[:perFuzzer]
		}
		for ci, src := range cases {
			for _, p := range prepared {
				if msg := p.PreParseError(src); msg != "" {
					continue // identical gate on both paths
				}
				prog, perr := p.Parse(src)
				compiledRes := p.ExecParsed(prog, perr, opts)
				treeRes := p.ExecParsed(prog, perr, treeOpts)
				if compiledRes.Semantics() != treeRes.Semantics() {
					t.Fatalf("%s case %d on %s: evaluator paths diverge\ncompiled: %+v\ntree:     %+v\nprogram:\n%s",
						f.Name(), ci, p.Testbed.ID(), compiledRes, treeRes, src)
				}
			}
		}
	}
}

// TestShapesOracle is the differential oracle for the hidden-class object
// layout and its inline caches: every program the six fuzzers generate
// from fixed seeds must produce byte-identical ExecResults — output,
// outcome, error rendering and fuel consumption — whether it executes
// with shape-mode objects and ICs (the default compiled configuration),
// with dictionary objects on the compiled path (DisableShapes), or on the
// dictionary tree walker (DisableShapes + DisableCompile), across
// defect-laden and reference testbeds in both modes.
func TestShapesOracle(t *testing.T) {
	tbs := oracleTestbeds()
	prepared := make([]*engines.PreparedTestbed, len(tbs))
	for i, tb := range tbs {
		prepared[i] = tb.Prepare()
	}
	opts := engines.RunOptions{Fuel: 150000, Seed: 9}
	dictOpts := opts
	dictOpts.DisableShapes = true
	treeOpts := dictOpts
	treeOpts.DisableCompile = true
	const perFuzzer = 25
	for fi, f := range fuzzers.All() {
		rng := rand.New(rand.NewSource(int64(100 + fi)))
		var cases []string
		for len(cases) < perFuzzer {
			batch := f.Next(rng)
			if len(batch) == 0 {
				break
			}
			cases = append(cases, batch...)
		}
		if len(cases) > perFuzzer {
			cases = cases[:perFuzzer]
		}
		for ci, src := range cases {
			for _, p := range prepared {
				if msg := p.PreParseError(src); msg != "" {
					continue // identical gate on all paths
				}
				prog, perr := p.Parse(src)
				shapedRes := p.ExecParsed(prog, perr, opts)
				dictRes := p.ExecParsed(prog, perr, dictOpts)
				treeRes := p.ExecParsed(prog, perr, treeOpts)
				if shapedRes.Semantics() != dictRes.Semantics() {
					t.Fatalf("%s case %d on %s: object layouts diverge on the compiled path\nshaped: %+v\ndict:   %+v\nprogram:\n%s",
						f.Name(), ci, p.Testbed.ID(), shapedRes, dictRes, src)
				}
				if shapedRes.Semantics() != treeRes.Semantics() {
					t.Fatalf("%s case %d on %s: shaped compiled path diverges from dictionary tree walker\nshaped: %+v\ntree:   %+v\nprogram:\n%s",
						f.Name(), ci, p.Testbed.ID(), shapedRes, treeRes, src)
				}
			}
		}
	}
}

// TestCampaignShapesOracle runs the same campaign with and without the
// hidden-class layout and requires identical findings, verdict tallies and
// execution counts — the campaign-level finding-identity oracle for the
// shape/IC subsystem. It also pins that the default configuration actually
// exercises the inline caches (non-zero probe traffic) and that the
// ablation leaves them untouched.
func TestCampaignShapesOracle(t *testing.T) {
	run := func(disable bool) *Result {
		return Run(Config{
			Fuzzer:   fuzzers.NewComfort(),
			Testbeds: engines.Testbeds(),
			Cases:    150,
			Seed:     2021,
			Workers:  4,
			Mode:     engines.Mode{DisableShapes: disable},
		})
	}
	shaped := run(false)
	dict := run(true)
	if got, want := findingsKey(shaped), findingsKey(dict); got != want {
		t.Errorf("findings differ between object layouts:\nshaped: %s\ndict:   %s", got, want)
	}
	if shaped.Executed != dict.Executed {
		t.Errorf("executed %d shaped, %d dict", shaped.Executed, dict.Executed)
	}
	for v, n := range shaped.Verdicts {
		if dict.Verdicts[v] != n {
			t.Errorf("verdict %s: %d shaped vs %d dict", v, n, dict.Verdicts[v])
		}
	}
	if shaped.ICHits+shaped.ICMisses == 0 {
		t.Errorf("default campaign should exercise the inline caches: hits=%d misses=%d",
			shaped.ICHits, shaped.ICMisses)
	}
	if dict.ICHits+dict.ICMisses+dict.ICMega != 0 {
		t.Errorf("DisableShapes campaign should leave the inline caches empty: hits=%d misses=%d mega=%d",
			dict.ICHits, dict.ICMisses, dict.ICMega)
	}
}

// TestCampaignCompileOracle runs the same campaign with and without the
// thunk compiler and requires identical findings, verdict tallies and
// execution counts — plus full compiled-path coverage in the default
// configuration (the Fallback counter stays at zero).
func TestCampaignCompileOracle(t *testing.T) {
	run := func(disable bool) *Result {
		return Run(Config{
			Fuzzer:   fuzzers.NewComfort(),
			Testbeds: engines.Testbeds(),
			Cases:    150,
			Seed:     2021,
			Workers:  4,
			Mode:     engines.Mode{DisableCompile: disable},
		})
	}
	compiled := run(false)
	tree := run(true)
	if got, want := findingsKey(compiled), findingsKey(tree); got != want {
		t.Errorf("findings differ between evaluator paths:\ncompiled: %s\ntree:     %s", got, want)
	}
	if compiled.Executed != tree.Executed {
		t.Errorf("executed %d on compiled path, %d on tree path", compiled.Executed, tree.Executed)
	}
	for v, n := range compiled.Verdicts {
		if tree.Verdicts[v] != n {
			t.Errorf("verdict %s: %d compiled vs %d tree", v, n, tree.Verdicts[v])
		}
	}
	if compiled.Compiled == 0 || compiled.Fallback != 0 {
		t.Errorf("default campaign should run fully compiled: compiled=%d fallback=%d",
			compiled.Compiled, compiled.Fallback)
	}
	if tree.Compiled != 0 || tree.Fallback == 0 {
		t.Errorf("DisableCompile campaign should run fully tree-walked: compiled=%d fallback=%d",
			tree.Compiled, tree.Fallback)
	}
}

// TestCampaignResolveOracle runs the same campaign on both evaluator paths
// and requires identical findings, verdict tallies and execution counts.
func TestCampaignResolveOracle(t *testing.T) {
	run := func(disable bool) *Result {
		return Run(Config{
			Fuzzer:   fuzzers.NewComfort(),
			Testbeds: engines.Testbeds(),
			Cases:    150,
			Seed:     2021,
			Workers:  4,
			Mode:     engines.Mode{DisableResolve: disable},
		})
	}
	resolved := run(false)
	mapped := run(true)
	if got, want := findingsKey(resolved), findingsKey(mapped); got != want {
		t.Errorf("findings differ between evaluator paths:\nresolved: %s\nmap:      %s", got, want)
	}
	if resolved.Executed != mapped.Executed {
		t.Errorf("executed %d on resolved path, %d on map path", resolved.Executed, mapped.Executed)
	}
	for v, n := range resolved.Verdicts {
		if mapped.Verdicts[v] != n {
			t.Errorf("verdict %s: %d resolved vs %d map", v, n, mapped.Verdicts[v])
		}
	}
}

// TestCampaignFrozenLMOracle runs the same campaign with the generator on
// the frozen token-ID sampler and on the map-backed oracle sampler, for
// every LM-backed fuzzer, and requires identical findings, tallies and
// accounting — the generation-side twin of TestCampaignResolveOracle.
func TestCampaignFrozenLMOracle(t *testing.T) {
	for _, mk := range []func(fuzzers.LMOptions) fuzzers.Fuzzer{
		func(o fuzzers.LMOptions) fuzzers.Fuzzer { return fuzzers.NewComfortLM(o) },
		func(o fuzzers.LMOptions) fuzzers.Fuzzer { return fuzzers.NewDeepSmithLM(o) },
		func(o fuzzers.LMOptions) fuzzers.Fuzzer { return fuzzers.NewMontageLM(o) },
	} {
		run := func(disable bool) *Result {
			return Run(Config{
				Fuzzer:   mk(fuzzers.LMOptions{DisableFrozenLM: disable}),
				Testbeds: engines.Testbeds(),
				Cases:    100,
				Seed:     2021,
				Workers:  4,
			})
		}
		frozen := run(false)
		mapped := run(true)
		if got, want := findingsKey(frozen), findingsKey(mapped); got != want {
			t.Errorf("%s: findings differ between LM implementations:\nfrozen: %s\nmap:    %s",
				frozen.FuzzerName, got, want)
		}
		if frozen.Executed != mapped.Executed || frozen.CasesRun != mapped.CasesRun {
			t.Errorf("%s: accounting differs between LM implementations: (%d,%d) vs (%d,%d)",
				frozen.FuzzerName, frozen.CasesRun, frozen.Executed, mapped.CasesRun, mapped.Executed)
		}
		for v, n := range frozen.Verdicts {
			if mapped.Verdicts[v] != n {
				t.Errorf("%s: verdict %s: %d frozen vs %d map", frozen.FuzzerName, v, n, mapped.Verdicts[v])
			}
		}
	}
}

// TestCampaignWorkerIndependenceResolved pins worker-count independence
// with resolution enabled (the default path): findings and tallies must not
// depend on scheduling.
func TestCampaignWorkerIndependenceResolved(t *testing.T) {
	run := func(workers int) *Result {
		return Run(Config{
			Fuzzer:   fuzzers.NewComfort(),
			Testbeds: engines.Testbeds(),
			Cases:    120,
			Seed:     77,
			Workers:  workers,
		})
	}
	a, b := run(1), run(8)
	if got, want := findingsKey(a), findingsKey(b); got != want {
		t.Errorf("findings depend on worker count:\n1 worker: %s\n8 workers: %s", got, want)
	}
	if a.CasesRun != b.CasesRun || a.Executed != b.Executed {
		t.Errorf("case accounting depends on worker count: (%d,%d) vs (%d,%d)",
			a.CasesRun, a.Executed, b.CasesRun, b.Executed)
	}
}

// findingsKey renders a campaign's findings deterministically for
// comparison.
func findingsKey(r *Result) string {
	ids := make([]string, 0, len(r.Found))
	for id := range r.Found {
		ids = append(ids, id)
	}
	sortStrings(ids)
	out := ""
	for _, id := range ids {
		f := r.Found[id]
		out += fmt.Sprintf("%s[%s|%s|%d];", id, f.Engine, f.Verdict, len(f.TestCase))
	}
	if out == "" {
		out = "(none)"
	}
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TestResolveIdempotent guards the compiled-program cache's sharing
// assumption: resolving twice must be a no-op.
func TestResolveIdempotent(t *testing.T) {
	p := engines.ReferenceTestbed(false).Prepare()
	prog, err := p.Parse("function f(a){var b=a+1; return b;} print(f(2));")
	if err != nil {
		t.Fatal(err)
	}
	if !prog.ResolvedScopes {
		t.Fatal("PreparedTestbed.Parse did not resolve the program")
	}
	resolve.Program(prog) // second resolution must not disturb annotations
	res := p.Exec(prog, engines.RunOptions{Fuel: 10000, Seed: 1})
	if res.Output != "3\n" {
		t.Fatalf("unexpected output %q", res.Output)
	}
}
