package engines_test

import (
	"math/rand"
	"testing"

	"comfort/internal/corpus"
	"comfort/internal/engines"
	"comfort/internal/fuzzers"
)

// realmOracleTestbeds is one prepared executor per behaviour class among
// the reference testbed and the oldest (defect-richest) and newest
// version of every engine family, in both modes.
func realmOracleTestbeds() []*engines.PreparedTestbed {
	tbs := []engines.Testbed{engines.ReferenceTestbed(false), engines.ReferenceTestbed(true)}
	for _, e := range engines.All() {
		for _, v := range []engines.Version{e.Versions[0], e.Latest()} {
			tbs = append(tbs, engines.Testbed{Version: v}, engines.Testbed{Version: v, Strict: true})
		}
	}
	seen := map[string]bool{}
	var out []*engines.PreparedTestbed
	for _, tb := range tbs {
		p := tb.Prepare()
		if !seen[p.BehaviorKey()] {
			seen[p.BehaviorKey()] = true
			out = append(out, p)
		}
	}
	return out
}

// realmOracleSources is the embedded corpus plus a fixed-seed sample of
// every fuzzer's output.
func realmOracleSources(perFuzzer int) []string {
	srcs := append([]string(nil), corpus.Programs()...)
	for fi, f := range fuzzers.All() {
		rng := rand.New(rand.NewSource(int64(300 + fi)))
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
		srcs = append(srcs, cases...)
	}
	return srcs
}

// TestRealmCopyOracle is the outcome oracle for realm templates: every
// source runs on a copied realm and on a freshly installed one, over
// defect-rich testbeds in every evaluator Mode, and the ExecResults must
// be identical — output, outcome, error rendering, fuel and inline-cache
// counters. One shared parse serves both runs of a cell.
func TestRealmCopyOracle(t *testing.T) {
	tbs := realmOracleTestbeds()
	srcs := realmOracleSources(12)
	modes := []engines.Mode{
		{},
		{DisableResolve: true},
		{DisableCompile: true},
		{DisableShapes: true},
		{DisableAnalyze: true},
	}
	cells := 0
	for _, mode := range modes {
		opts := engines.RunOptions{Fuel: 150000, Seed: 9, Mode: mode}
		for si, src := range srcs {
			share := engines.NewParseShare(mode)
			for _, p := range tbs {
				copied := engines.RunCell(p, src, share.Parse, opts)
				restore := engines.UseFreshRealms()
				freshRes := engines.RunCell(p, src, share.Parse, opts)
				restore()
				if copied != freshRes {
					t.Fatalf("mode %+v, source %d on %s: copied realm diverges from fresh install\ncopy:  %+v\nfresh: %+v\nprogram:\n%s",
						mode, si, p.Testbed.ID(), copied, freshRes, src)
				}
				cells++
			}
		}
	}
	t.Logf("%d cells: %d sources × %d testbeds × %d modes", cells, len(srcs), len(tbs), len(modes))
	if want := len(modes) * len(srcs) * len(tbs); cells != want || len(srcs) < 100 {
		t.Fatalf("oracle covered %d cells over %d sources, want %d over ≥100", cells, len(srcs), want)
	}
}
