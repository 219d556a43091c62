// Package difftest implements the differential-testing methodology of the
// paper's Section 3.4 and Figure 5: execute a test case on many testbeds,
// check parse consistency, apply the 2× timeout rule over deterministic
// fuel, and majority-vote on execution behaviour to isolate deviant
// engines.
package difftest

import (
	"sort"

	"comfort/internal/engines"
	"comfort/internal/js/ast"
)

// Verdict classifies a whole test case (the leaf states of Figure 5).
type Verdict int

// Test-case verdicts.
const (
	// VerdictPass: all testbeds agree on a successful execution.
	VerdictPass Verdict = iota
	// VerdictInvalid: every testbed rejects the program (ignored).
	VerdictInvalid
	// VerdictParseInconsistent: engines disagree about parseability.
	VerdictParseInconsistent
	// VerdictWrongOutput: executions disagree on result/exception.
	VerdictWrongOutput
	// VerdictCrash: at least one engine crashed.
	VerdictCrash
	// VerdictTimeout: at least one engine violated the 2× fuel rule.
	VerdictTimeout
	// VerdictAllTimeout: everything timed out (likely an infinite loop in
	// the test program; ignored per the paper's ten-minute rule).
	VerdictAllTimeout
	// VerdictInconclusive: no majority behaviour exists.
	VerdictInconclusive
)

func (v Verdict) String() string {
	switch v {
	case VerdictPass:
		return "pass"
	case VerdictInvalid:
		return "invalid"
	case VerdictParseInconsistent:
		return "parse-inconsistent"
	case VerdictWrongOutput:
		return "wrong-output"
	case VerdictCrash:
		return "crash"
	case VerdictTimeout:
		return "timeout"
	case VerdictAllTimeout:
		return "all-timeout"
	default:
		return "inconclusive"
	}
}

// verdictNames maps each verdict's String rendering back to the value —
// the stable encoding campaign checkpoints persist verdict counters under.
var verdictNames = map[string]Verdict{}

func init() {
	for v := VerdictPass; v <= VerdictInconclusive; v++ {
		verdictNames[v.String()] = v
	}
}

// VerdictByName resolves a Verdict from its String rendering (checkpoint
// decoding). The second return is false for unknown names.
func VerdictByName(name string) (Verdict, bool) {
	v, ok := verdictNames[name]
	return v, ok
}

// IsBuggy reports whether the verdict indicates anomalous engine behaviour
// worth reporting.
func (v Verdict) IsBuggy() bool {
	switch v {
	case VerdictParseInconsistent, VerdictWrongOutput, VerdictCrash, VerdictTimeout:
		return true
	}
	return false
}

// Deviation is one testbed whose behaviour deviates from the majority.
type Deviation struct {
	Testbed engines.Testbed
	Result  engines.ExecResult
}

// ExecEntry pairs one testbed with its observed behaviour on a test case —
// the raw material of Figure-5 classification. Schedulers produce entries
// (in any order); Classify consumes them.
type ExecEntry struct {
	Testbed engines.Testbed
	Result  engines.ExecResult
}

// CaseResult is the outcome of differentially testing one program.
type CaseResult struct {
	Verdict     Verdict
	Deviations  []Deviation
	MajorityKey string
	Results     map[string]engines.ExecResult // by testbed ID
	// EarlyError marks a VerdictInvalid case whose rejection came from the
	// static analyzer's early-error gate on every testbed (rather than the
	// parser): the campaign accounts these separately — the whole case was
	// classified without a single interpreter run.
	EarlyError bool
}

// Options parameterise a run.
type Options struct {
	Fuel int64
	Seed int64
}

// DefaultFuel is the campaign-scale step budget per testbed execution,
// shared by difftest, the exec scheduler and campaign defaulting.
const DefaultFuel = 200000

// RunCell is engines.RunCell. It stays because the benchmark harness
// (perfbench) calls it.
func RunCell(p *engines.PreparedTestbed, src string,
	parse func(*engines.PreparedTestbed, string) (*ast.Program, error),
	opts engines.RunOptions) engines.ExecResult {
	return engines.RunCell(p, src, parse, opts)
}

// Run executes src on all testbeds and classifies the outcome per Figure 5.
func Run(src string, testbeds []engines.Testbed, opts Options) CaseResult {
	return Classify(Execute(src, testbeds, opts))
}

// Execute runs src on every testbed (via its memoised prepared form) and
// returns the per-testbed entries in testbed order. The parse is shared
// between testbeds whose resolved parser options coincide (one
// engines.ParseShare per case), and the whole
// execution is shared between testbeds in the same behaviour equivalence
// class (see engines.PreparedTestbed.BehaviorKey).
func Execute(src string, testbeds []engines.Testbed, opts Options) []ExecEntry {
	if opts.Fuel == 0 {
		opts.Fuel = DefaultFuel
	}
	runOpts := engines.RunOptions{Fuel: opts.Fuel, Seed: opts.Seed}
	share := engines.NewParseShare(runOpts.Mode)
	resultCache := map[string]engines.ExecResult{}
	entries := make([]ExecEntry, 0, len(testbeds))
	for _, tb := range testbeds {
		p := tb.Prepare()
		r, ok := resultCache[p.BehaviorKey()]
		if !ok {
			r = engines.RunCell(p, src, share.Parse, runOpts)
			resultCache[p.BehaviorKey()] = r
		}
		entries = append(entries, ExecEntry{Testbed: tb, Result: r})
	}
	return entries
}

// Classify applies the Figure-5 decision procedure to a set of executions.
// It is pure — no testbed runs — so it is unit-testable with synthetic
// entries and reusable by the exec scheduler's result sink. Normal-mode and
// strict-mode testbeds vote in separate pools, because the two modes have
// legitimately different conforming behaviour; the pools' verdicts are then
// merged.
func Classify(entries []ExecEntry) CaseResult {
	var normal, strict []ExecEntry
	for _, e := range entries {
		if e.Testbed.Strict {
			strict = append(strict, e)
		} else {
			normal = append(normal, e)
		}
	}
	if len(normal) == 0 || len(strict) == 0 {
		return classifyPool(entries)
	}
	a := classifyPool(normal)
	b := classifyPool(strict)
	merged := CaseResult{Results: a.Results, Verdict: a.Verdict, MajorityKey: a.MajorityKey,
		EarlyError: a.EarlyError && b.EarlyError}
	for k, v := range b.Results {
		merged.Results[k] = v
	}
	if verdictRank(b.Verdict) > verdictRank(a.Verdict) {
		merged.Verdict = b.Verdict
		merged.MajorityKey = b.MajorityKey
	}
	if a.Verdict.IsBuggy() {
		merged.Deviations = append(merged.Deviations, a.Deviations...)
	}
	if b.Verdict.IsBuggy() {
		merged.Deviations = append(merged.Deviations, b.Deviations...)
	}
	return merged
}

// verdictRank orders verdicts by how actionable they are for merging.
func verdictRank(v Verdict) int {
	switch v {
	case VerdictCrash:
		return 7
	case VerdictTimeout:
		return 6
	case VerdictParseInconsistent:
		return 5
	case VerdictWrongOutput:
		return 4
	case VerdictInconclusive:
		return 3
	case VerdictPass:
		return 2
	case VerdictAllTimeout:
		return 1
	default: // VerdictInvalid
		return 0
	}
}

// classifyPool applies the Figure-5 classification to one pool of entries.
func classifyPool(entries []ExecEntry) CaseResult {
	res := CaseResult{Results: map[string]engines.ExecResult{}}
	for _, e := range entries {
		res.Results[e.Testbed.ID()] = e.Result
	}

	// Step 1: parse consistency.
	parseErrs := 0
	earlyErrs := 0
	for _, e := range entries {
		if e.Result.Outcome == engines.OutcomeParseError {
			parseErrs++
			if e.Result.EarlyError {
				earlyErrs++
			}
		}
	}
	switch {
	case parseErrs == len(entries):
		res.Verdict = VerdictInvalid
		res.EarlyError = earlyErrs == len(entries)
		return res
	case parseErrs > 0:
		res.Verdict = VerdictParseInconsistent
		// The minority side is deviant: engines disagreeing with the most
		// common parse disposition.
		parseOK := len(entries) - parseErrs
		deviantIsErr := parseErrs <= parseOK
		for _, e := range entries {
			if (e.Result.Outcome == engines.OutcomeParseError) == deviantIsErr {
				res.Deviations = append(res.Deviations, Deviation{e.Testbed, e.Result})
			}
		}
		return res
	}

	// Step 2: crashes are of immediate interest.
	for _, e := range entries {
		if e.Result.Outcome == engines.OutcomeCrash {
			res.Deviations = append(res.Deviations, Deviation{e.Testbed, e.Result})
		}
	}
	if len(res.Deviations) > 0 && len(res.Deviations) < len(entries) {
		res.Verdict = VerdictCrash
		return res
	}
	res.Deviations = nil

	// Step 3: the 2× timeout rule over fuel. An engine that exhausted its
	// budget while others finished far below it is deviant. A wall-clock
	// watchdog timeout is deviant unconditionally: the engine hung in real
	// time while the others finished, so its (possibly tiny) fuel reading
	// says nothing — the 2× fuel comparison only gates fuel timeouts.
	var maxFinished int64
	finished := 0
	for _, e := range entries {
		if e.Result.Outcome != engines.OutcomeTimeout {
			finished++
			if e.Result.FuelUsed > maxFinished {
				maxFinished = e.Result.FuelUsed
			}
		}
	}
	if finished == 0 {
		res.Verdict = VerdictAllTimeout
		return res
	}
	for _, e := range entries {
		if e.Result.Outcome == engines.OutcomeTimeout &&
			(e.Result.WallClock || e.Result.FuelUsed > 2*maxFinished) {
			res.Deviations = append(res.Deviations, Deviation{e.Testbed, e.Result})
		}
	}
	if len(res.Deviations) > 0 {
		res.Verdict = VerdictTimeout
		return res
	}

	// Step 4: majority voting over behaviour keys.
	groups := map[string][]ExecEntry{}
	for _, e := range entries {
		groups[e.Result.Key()] = append(groups[e.Result.Key()], e)
	}
	if len(groups) == 1 {
		res.Verdict = VerdictPass
		res.MajorityKey = entries[0].Result.Key()
		return res
	}
	var keys []string
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if len(groups[keys[i]]) != len(groups[keys[j]]) {
			return len(groups[keys[i]]) > len(groups[keys[j]])
		}
		return keys[i] < keys[j]
	})
	majority := keys[0]
	if len(keys) > 1 && len(groups[keys[0]]) == len(groups[keys[1]]) && len(groups) == 2 &&
		len(groups[keys[0]])*2 == len(entries) {
		// Perfect split: no majority to vote with.
		res.Verdict = VerdictInconclusive
		return res
	}
	res.MajorityKey = majority
	for _, k := range keys[1:] {
		for _, e := range groups[k] {
			res.Deviations = append(res.Deviations, Deviation{e.Testbed, e.Result})
		}
	}
	res.Verdict = VerdictWrongOutput
	return res
}
