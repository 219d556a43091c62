package campaign

import (
	"math/rand"
	"testing"

	"comfort/internal/difftest"
	"comfort/internal/engines"
	"comfort/internal/fuzzers"
	"comfort/internal/js/analyze"
)

// fixedFuzzer replays a fixed source list, one program per batch.
type fixedFuzzer struct {
	srcs []string
	i    int
}

func (f *fixedFuzzer) Name() string { return "fixed" }

func (f *fixedFuzzer) Next(*rand.Rand) []string {
	if f.i >= len(f.srcs) {
		return nil
	}
	f.i++
	return []string{f.srcs[f.i-1]}
}

// TestAnalyzeOracle is the differential oracle for the static-analysis
// layer: every program the six fuzzers generate from fixed seeds must
// produce byte-identical ExecResults — output, outcome, error rendering,
// fuel consumption and the early-error marker — whether the early-error
// verdict comes from the analyze-once cached report (the default) or is
// recomputed from the AST per execution (DisableAnalyze), across
// defect-laden and reference testbeds in both modes. Programs the analyzer
// statically rejects must additionally be rejected identically by every
// testbed — the soundness condition that lets the scheduler classify an
// early-error case from the reference testbed alone.
func TestAnalyzeOracle(t *testing.T) {
	tbs := oracleTestbeds()
	prepared := make([]*engines.PreparedTestbed, len(tbs))
	for i, tb := range tbs {
		prepared[i] = tb.Prepare()
	}
	opts := engines.RunOptions{Fuel: 150000, Seed: 9}
	noAnlz := opts
	noAnlz.DisableAnalyze = true
	earlyErrorProgs := 0
	checkOne := func(name string, ci int, src string) {
		var rejected, accepted int
		for _, p := range prepared {
			if msg := p.PreParseError(src); msg != "" {
				continue // identical gate in both modes
			}
			prog, perr := p.Parse(src)
			cached := p.ExecParsed(prog, perr, opts)
			fresh := p.ExecParsed(prog, perr, noAnlz)
			if cached.Semantics() != fresh.Semantics() {
				t.Fatalf("%s case %d on %s: analyze modes diverge\ncached: %+v\nfresh:  %+v\nprogram:\n%s",
					name, ci, p.Testbed.ID(), cached, fresh, src)
			}
			if perr != nil {
				continue
			}
			if rep := analyze.Of(prog); rep != nil && rep.Invalid() {
				if !cached.EarlyError {
					t.Fatalf("%s case %d on %s: analyzer reports %q but the testbed ran the program\nprogram:\n%s",
						name, ci, p.Testbed.ID(), rep.FirstError().Render(), src)
				}
				rejected++
			} else {
				accepted++
			}
		}
		// Soundness of reference-only classification: no program may be an
		// early error on one testbed and runnable on another.
		if rejected > 0 && accepted > 0 {
			t.Fatalf("%s case %d: early-error verdict differs across testbeds (%d reject, %d run)\nprogram:\n%s",
				name, ci, rejected, accepted, src)
		}
		if rejected > 0 {
			earlyErrorProgs++
		}
	}
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
			checkOne(f.Name(), ci, src)
		}
	}
	// Fuzzer corpora are mostly statically valid, so drive the early-error
	// gate explicitly through the same cross-testbed check. (Bare
	// break/continue/return placement is the parser's job — these are the
	// rules only the analyzer sees.)
	for ci, src := range []string{
		"let a = 1; let a = 2; print(a);",
		"const c = 1; c = 2; print(c);",
		"x: { continue x; }",
		"x: x: while (true) { break; }",
		"try { print(1); } catch (e) { let e = 1; }",
		"for (let i = 0, i = 1; false; ) { }",
		"x: while (true) { break y; }",
		"function f(p) { let p = 1; } f(0);",
	} {
		checkOne("early-error-samples", ci, src)
	}
	if earlyErrorProgs < 8 {
		t.Fatalf("early-error gate exercised on only %d programs; the oracle lost its teeth", earlyErrorProgs)
	}
}

// TestCampaignAnalyzeOracle runs the same campaign with and without the
// static-analysis layer. The two runs must agree on every execution-side
// number — verdict tallies, executed grid, dedup and attribution counters,
// early-error cases — and the default run's findings must be exactly the
// DisableAnalyze run's findings minus the families it diverted to
// SuppressedNondet (witnesses carrying divergence-risk flags). Shared
// findings are byte-identical.
func TestCampaignAnalyzeOracle(t *testing.T) {
	// CodeAlchemist at this seed is the corpus whose witnesses include a
	// flagged-nondeterministic one, so the suppression diversion is
	// actually exercised (asserted below), not just vacuously equal.
	run := func(disable bool) *Result {
		return Run(Config{
			Fuzzer:   fuzzers.NewCodeAlchemist(),
			Testbeds: engines.Testbeds(),
			Cases:    150,
			Seed:     2021,
			Workers:  4,
			Mode:     engines.Mode{DisableAnalyze: disable},
		})
	}
	on := run(false)
	off := run(true)
	if len(on.SuppressedNondet) == 0 {
		t.Errorf("corpus produced no suppressed findings; the suppression half of this oracle is vacuous")
	}

	// Execution-side accounting is analysis-independent.
	if on.CasesRun != off.CasesRun || on.Executed != off.Executed {
		t.Errorf("case accounting differs: (%d,%d) with analysis vs (%d,%d) without",
			on.CasesRun, on.Executed, off.CasesRun, off.Executed)
	}
	for v, n := range on.Verdicts {
		if off.Verdicts[v] != n {
			t.Errorf("verdict %s: %d with analysis vs %d without", v, n, off.Verdicts[v])
		}
	}
	if on.EarlyErrorCases != off.EarlyErrorCases {
		t.Errorf("early-error cases differ: %d with analysis vs %d without",
			on.EarlyErrorCases, off.EarlyErrorCases)
	}
	if on.DuplicatesFiltered != off.DuplicatesFiltered {
		t.Errorf("dedup differs: %d filtered with analysis vs %d without",
			on.DuplicatesFiltered, off.DuplicatesFiltered)
	}
	if on.UnattributedFindings != off.UnattributedFindings {
		t.Errorf("attribution differs: %d unattributed with analysis vs %d without",
			on.UnattributedFindings, off.UnattributedFindings)
	}

	// Found-on == Found-off minus exactly the suppressed IDs.
	for id, f := range on.Found {
		g, ok := off.Found[id]
		if !ok {
			t.Errorf("finding %s present with analysis but absent without", id)
			continue
		}
		if f.TestCase != g.TestCase || f.Engine != g.Engine || f.Verdict != g.Verdict {
			t.Errorf("finding %s differs between modes:\nwith:    %s %s %q\nwithout: %s %s %q",
				id, f.Engine, f.Verdict, f.TestCase, g.Engine, g.Verdict, g.TestCase)
		}
	}
	for id, f := range on.SuppressedNondet {
		if _, dup := on.Found[id]; dup {
			t.Errorf("finding %s is both reported and suppressed", id)
		}
		if _, ok := off.Found[id]; !ok {
			t.Errorf("suppressed finding %s absent from the DisableAnalyze run", id)
		}
		if len(f.Flags) == 0 {
			t.Errorf("suppressed finding %s carries no divergence-risk flags", id)
		}
	}
	for id := range off.Found {
		_, found := on.Found[id]
		_, suppressed := on.SuppressedNondet[id]
		if !found && !suppressed {
			t.Errorf("finding %s from the DisableAnalyze run is neither reported nor suppressed with analysis on", id)
		}
	}

	// Mode-specific counters point the right way.
	if on.Analyzed == 0 {
		t.Errorf("default campaign consulted no cached analysis reports")
	}
	if off.Analyzed != 0 {
		t.Errorf("DisableAnalyze campaign counted %d analyzed executions", off.Analyzed)
	}
	if len(off.SuppressedNondet) != 0 || off.FlaggedNondet != 0 {
		t.Errorf("DisableAnalyze campaign suppressed findings: %d (counter %d)",
			len(off.SuppressedNondet), off.FlaggedNondet)
	}
	if off.FeatureCounts != nil || off.FeaturesSeen != 0 {
		t.Errorf("DisableAnalyze campaign recorded feature fingerprints: %v", off.FeatureCounts)
	}
	if on.FeaturesSeen == 0 || len(on.FeatureCounts) == 0 {
		t.Errorf("default campaign recorded no feature fingerprints")
	}
	if int64(len(on.SuppressedNondet)) != on.FlaggedNondet {
		t.Errorf("FlaggedNondet counter %d does not match suppressed set size %d",
			on.FlaggedNondet, len(on.SuppressedNondet))
	}
}

// TestCampaignEarlyErrorAccounting pins that statically invalid programs
// are classified as invalid from the analyzer report alone: a fuzzer
// emitting only early-error programs yields a campaign where every case is
// an early-error invalid, no interpreter ran, and the early-skip counter
// saw every (behaviour-class) execution.
func TestCampaignEarlyErrorAccounting(t *testing.T) {
	srcs := []string{
		"let a = 1; let a = 2;",
		"const c = 1; c = 2;",
		"x: { continue x; }",
	}
	res := Run(Config{
		Fuzzer:   &fixedFuzzer{srcs: srcs},
		Testbeds: engines.Testbeds(),
		Cases:    len(srcs),
		Seed:     1,
		Workers:  2,
	})
	if res.EarlyErrorCases != len(srcs) {
		t.Fatalf("EarlyErrorCases = %d, want %d", res.EarlyErrorCases, len(srcs))
	}
	if res.EarlyErrorSkips == 0 {
		t.Fatalf("EarlyErrorSkips = 0; the gate never fired")
	}
	if res.Compiled != 0 || res.Fallback != 0 {
		t.Fatalf("interpreter ran on statically invalid programs: compiled=%d tree=%d",
			res.Compiled, res.Fallback)
	}
	if n := res.Verdicts[difftest.VerdictInvalid]; n != len(srcs) {
		t.Fatalf("invalid verdicts = %d, want %d (verdicts: %v)", n, len(srcs), res.Verdicts)
	}
}
