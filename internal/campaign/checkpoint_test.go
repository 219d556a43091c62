package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"comfort/internal/engines"
	"comfort/internal/faultinject"
	"comfort/internal/fuzzers"
)

// requireSameAccounting asserts the byte-identical half of the
// checkpoint/resume contract: findings, verdict histogram, dedup and
// attribution counters, and feature accounting all match between two
// results. Diagnostic counters (cache, IC, evaluator paths) are
// deliberately outside the contract.
func requireSameAccounting(t *testing.T, tag string, want, got *Result) {
	t.Helper()
	if want.CasesRun != got.CasesRun || want.Executed != got.Executed {
		t.Fatalf("%s: accounting position differs: (%d,%d) vs (%d,%d)",
			tag, want.CasesRun, want.Executed, got.CasesRun, got.Executed)
	}
	sameFindings := func(kind string, w, g map[string]*Finding) {
		if len(w) != len(g) {
			t.Fatalf("%s: %s count differs: %d vs %d", tag, kind, len(w), len(g))
		}
		for id, f := range w {
			h, ok := g[id]
			if !ok {
				t.Errorf("%s: %s %s missing", tag, kind, id)
				continue
			}
			if f.TestCase != h.TestCase || f.Verdict != h.Verdict || f.Engine != h.Engine ||
				f.strict != h.strict {
				t.Errorf("%s: %s %s differs:\n%+v\nvs\n%+v", tag, kind, id, f, h)
			}
			if len(f.Features) != len(h.Features) || len(f.Flags) != len(h.Flags) {
				t.Errorf("%s: %s %s features/flags differ", tag, kind, id)
			}
		}
	}
	sameFindings("finding", want.Found, got.Found)
	sameFindings("suppressed", want.SuppressedNondet, got.SuppressedNondet)
	for v, n := range want.Verdicts {
		if got.Verdicts[v] != n {
			t.Errorf("%s: verdict %s: %d vs %d", tag, v, n, got.Verdicts[v])
		}
	}
	for v, n := range got.Verdicts {
		if want.Verdicts[v] != n {
			t.Errorf("%s: extra verdict %s: %d", tag, v, n)
		}
	}
	if want.DuplicatesFiltered != got.DuplicatesFiltered {
		t.Errorf("%s: duplicates filtered: %d vs %d", tag, want.DuplicatesFiltered, got.DuplicatesFiltered)
	}
	if want.UnattributedFindings != got.UnattributedFindings {
		t.Errorf("%s: unattributed: %d vs %d", tag, want.UnattributedFindings, got.UnattributedFindings)
	}
	if want.EarlyErrorCases != got.EarlyErrorCases {
		t.Errorf("%s: early-error cases: %d vs %d", tag, want.EarlyErrorCases, got.EarlyErrorCases)
	}
	if want.FlaggedNondet != got.FlaggedNondet {
		t.Errorf("%s: flagged nondet: %d vs %d", tag, want.FlaggedNondet, got.FlaggedNondet)
	}
	if want.FeaturesSeen != got.FeaturesSeen {
		t.Errorf("%s: features seen: %d vs %d", tag, want.FeaturesSeen, got.FeaturesSeen)
	}
	for name, n := range want.FeatureCounts {
		if got.FeatureCounts[name] != n {
			t.Errorf("%s: feature %s: %d vs %d", tag, name, n, got.FeatureCounts[name])
		}
	}
}

// TestKillAtEveryCheckpointResumesIdentical is the crash-recovery oracle:
// for every checkpoint ordinal, a campaign killed right after that write
// and resumed from the file produces accounting byte-identical to an
// uninterrupted run — across two worker/shard configurations, including a
// resume under a different pool and shard layout than the killed run.
func TestKillAtEveryCheckpointResumesIdentical(t *testing.T) {
	const cases, every = 40, 8
	mkCfg := func(workers, shards int) Config {
		return Config{
			Fuzzer:          fuzzers.NewComfort(),
			Testbeds:        figure8Testbeds(),
			Cases:           cases,
			Seed:            2,
			Workers:         workers,
			GenShards:       shards,
			CheckpointEvery: every,
		}
	}
	configs := []struct {
		name                           string
		killW, killS, resumeW, resumeS int
	}{
		{"serial", 1, 1, 1, 1},
		{"wide-to-narrow", 8, 4, 2, 1},
	}
	want := Run(mkCfg(4, 2))
	if want.CasesRun != cases {
		t.Fatalf("baseline ran %d cases, want %d", want.CasesRun, cases)
	}
	kills := (cases - 1) / every
	if kills < 2 {
		t.Fatalf("test needs >= 2 checkpoints, got %d", kills)
	}
	for _, cc := range configs {
		for n := 1; n <= kills; n++ {
			path := filepath.Join(t.TempDir(), "ckpt.json")
			killCfg := mkCfg(cc.killW, cc.killS)
			killCfg.Checkpoint = path
			killCfg.Faults = faultinject.New(faultinject.Config{KillAtCheckpoints: []int{n}})
			killed := Run(killCfg)
			if killed.CasesRun != n*every {
				t.Fatalf("%s kill@%d: killed run accounted %d cases, want %d",
					cc.name, n, killed.CasesRun, n*every)
			}
			st, err := LoadState(path)
			if err != nil {
				t.Fatalf("%s kill@%d: %v", cc.name, n, err)
			}
			if st.Done || st.CasesDone != n*every {
				t.Fatalf("%s kill@%d: checkpoint at %d cases (done=%v), want %d",
					cc.name, n, st.CasesDone, st.Done, n*every)
			}
			got, err := Resume(mkCfg(cc.resumeW, cc.resumeS), st)
			if err != nil {
				t.Fatalf("%s kill@%d: resume: %v", cc.name, n, err)
			}
			requireSameAccounting(t, fmt.Sprintf("%s/kill@%d", cc.name, n), want, got)
		}
	}
}

// TestSerialFuzzerCheckpointResume pins the replay path: a stateful (non-
// Forkable) fuzzer resumes by regenerating the stream from case 0 and
// suppressing the already-accounted prefix — same findings as an
// uninterrupted run.
func TestSerialFuzzerCheckpointResume(t *testing.T) {
	mkCfg := func() Config {
		return Config{
			Fuzzer:          fuzzers.NewDIE(),
			Testbeds:        figure8Testbeds()[:6],
			Cases:           30,
			Seed:            9,
			Workers:         4,
			CheckpointEvery: 7,
		}
	}
	want := Run(mkCfg())
	path := filepath.Join(t.TempDir(), "ckpt.json")
	killCfg := mkCfg()
	killCfg.Checkpoint = path
	killCfg.Faults = faultinject.New(faultinject.Config{KillAtCheckpoints: []int{2}})
	Run(killCfg)
	st, err := LoadState(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.NextBatch != -1 {
		t.Fatalf("serial checkpoint recorded batch %d, want -1 (replay-by-index)", st.NextBatch)
	}
	got, err := Resume(mkCfg(), st)
	if err != nil {
		t.Fatal(err)
	}
	requireSameAccounting(t, "serial-fuzzer", want, got)
}

// TestCancelThenResumeCompletes is the graceful-shutdown path end to end:
// a cancelled campaign flushes a final (not Done) checkpoint, and resuming
// it completes the budget with accounting identical to a never-interrupted
// run.
func TestCancelThenResumeCompletes(t *testing.T) {
	mkCfg := func() Config {
		return Config{
			Fuzzer:          fuzzers.NewComfort(),
			Testbeds:        figure8Testbeds(),
			Cases:           60,
			Seed:            2,
			Workers:         4,
			CheckpointEvery: 1000, // periodic writes out of the picture: only the final flush
		}
	}
	want := Run(mkCfg())
	path := filepath.Join(t.TempDir(), "ckpt.json")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := mkCfg()
	cfg.Checkpoint = path
	cfg.Context = ctx
	cfg.Progress = func(p Progress) {
		if p.Done == 20 {
			cancel()
		}
	}
	partial := Run(cfg)
	if partial.CasesRun >= 60 || partial.CasesRun < 20 {
		t.Fatalf("cancelled run accounted %d cases", partial.CasesRun)
	}
	st, err := LoadState(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done {
		t.Fatal("interrupted checkpoint marked Done")
	}
	if st.CasesDone != partial.CasesRun {
		t.Fatalf("final flush at %d cases, result says %d", st.CasesDone, partial.CasesRun)
	}
	got, err := Resume(mkCfg(), st)
	if err != nil {
		t.Fatal(err)
	}
	requireSameAccounting(t, "cancel-resume", want, got)

	// Resuming the now-Done final checkpoint reconstructs the result
	// without running anything.
	cfg2 := mkCfg()
	cfg2.Checkpoint = path
	if _, err := Resume(cfg2, st); err != nil {
		t.Fatal(err)
	}
	final, err := LoadState(path)
	if err != nil {
		t.Fatal(err)
	}
	if !final.Done {
		t.Fatal("completed resume did not mark the checkpoint Done")
	}
	redone, err := Resume(mkCfg(), final)
	if err != nil {
		t.Fatal(err)
	}
	requireSameAccounting(t, "done-restore", want, redone)
}

// TestLoadStateRejectsBadCheckpoints: garbage bytes, wrong format versions
// and mismatched configs all fail loudly instead of corrupting a resume.
func TestLoadStateRejectsBadCheckpoints(t *testing.T) {
	dir := t.TempDir()
	garbage := filepath.Join(dir, "garbage.json")
	if err := os.WriteFile(garbage, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadState(garbage); err == nil {
		t.Error("garbage checkpoint loaded")
	}
	if _, err := LoadState(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing checkpoint loaded")
	}
	versioned := filepath.Join(dir, "versioned.json")
	if err := os.WriteFile(versioned, []byte(`{"format": 999}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadState(versioned); err == nil {
		t.Error("future-format checkpoint loaded")
	}

	// Fingerprint mismatch: a checkpoint from seed 2 must not resume a
	// seed-3 campaign.
	path := filepath.Join(dir, "ckpt.json")
	cfg := Config{
		Fuzzer: fuzzers.NewComfort(), Testbeds: figure8Testbeds(),
		Cases: 20, Seed: 2, Workers: 2,
		Checkpoint: path, CheckpointEvery: 5,
		Faults: faultinject.New(faultinject.Config{KillAtCheckpoints: []int{1}}),
	}
	Run(cfg)
	st, err := LoadState(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Seed = 3
	bad.Faults = nil
	if _, err := Resume(bad, st); err == nil {
		t.Error("checkpoint resumed under a different seed")
	}
	over := cfg
	over.Faults = nil
	over.Cases = 20 // same fingerprint requires same Cases; corrupt CasesDone instead
	st.CasesDone = 999
	if _, err := Resume(over, st); err == nil {
		t.Error("checkpoint with CasesDone past the budget resumed")
	}
}

// TestFingerprintMismatchIsActionable: a resume under a diverging config
// names the diverging fields (and only those), both through
// DiffFingerprints and through the Resume error message itself.
func TestFingerprintMismatchIsActionable(t *testing.T) {
	diffs := DiffFingerprints(
		"comfort-campaign/v1 fuzzer=COMFORT seed=2 cases=40 dedup=true faults=none",
		"comfort-campaign/v1 fuzzer=DIE seed=3 cases=40 dedup=true faults=seed=7,panic=5")
	want := []string{
		"fuzzer: checkpoint has COMFORT, config has DIE",
		"seed: checkpoint has 2, config has 3",
		"faults: checkpoint has none, config has seed=7,panic=5",
	}
	if len(diffs) != len(want) {
		t.Fatalf("got %d diffs %v, want %d", len(diffs), diffs, len(want))
	}
	for i := range want {
		if diffs[i] != want[i] {
			t.Errorf("diff %d = %q, want %q", i, diffs[i], want[i])
		}
	}
	if d := DiffFingerprints("a b=1", "a b=1"); d != nil {
		t.Errorf("identical fingerprints diff to %v", d)
	}

	// End to end: the Resume error names the diverging field.
	path := filepath.Join(t.TempDir(), "ckpt.json")
	cfg := Config{
		Fuzzer: fuzzers.NewComfort(), Testbeds: figure8Testbeds(),
		Cases: 20, Seed: 2, Workers: 2,
		Checkpoint: path, CheckpointEvery: 5,
		Faults: faultinject.New(faultinject.Config{KillAtCheckpoints: []int{1}}),
	}
	Run(cfg)
	st, err := LoadState(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Seed = 3
	bad.Faults = nil
	_, err = Resume(bad, st)
	if err == nil {
		t.Fatal("mismatched resume succeeded")
	}
	if !strings.Contains(err.Error(), "seed: checkpoint has 2, config has 3") {
		t.Errorf("mismatch error does not name the diverging seed:\n%v", err)
	}
	if strings.Contains(err.Error(), "fuzzer:") {
		t.Errorf("mismatch error names a field that did not diverge:\n%v", err)
	}
}

// TestCheckpointIntervalUsesInjectedClock: the wall-time checkpoint axis
// ticks on the injected clock (the campaign never reads time.Now itself).
func TestCheckpointIntervalUsesInjectedClock(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	now := time.Unix(0, 0)
	res := Run(Config{
		Fuzzer: fuzzers.NewComfort(), Testbeds: figure8Testbeds(),
		Cases: 20, Seed: 2, Workers: 2,
		Checkpoint:         path,
		CheckpointEvery:    1000, // case axis off
		CheckpointInterval: time.Minute,
		Clock: func() time.Time {
			now = now.Add(10 * time.Second) // six calls per "minute"
			return now
		},
	})
	// Periodic interval writes plus the final flush.
	if res.Checkpoints < 2 {
		t.Fatalf("interval axis produced %d checkpoint writes", res.Checkpoints)
	}
	st, err := LoadState(path)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done || st.CasesDone != 20 {
		t.Errorf("final checkpoint: done=%v cases=%d", st.Done, st.CasesDone)
	}
}

// TestCampaignFaultInjectionIsAFinding: an injected evaluator panic inside
// a full campaign surfaces as a crash verdict and a Panics count — and
// never kills the process.
func TestCampaignFaultInjectionIsAFinding(t *testing.T) {
	mk := func() *Result {
		return Run(Config{
			Fuzzer: fuzzers.NewComfort(), Testbeds: figure8Testbeds(),
			Cases: 30, Seed: 2, Workers: 4,
			Faults: faultinject.New(faultinject.Config{Seed: 11, PanicEvery: 5}),
		})
	}
	a := mk()
	if a.Panics == 0 {
		t.Fatal("no injected panic recovered at 1-in-5")
	}
	crashes := 0
	for v, n := range a.Verdicts {
		if v.String() == "crash" {
			crashes += n
		}
	}
	if crashes == 0 {
		t.Error("recovered panics produced no crash verdicts")
	}
	b := mk()
	requireSameAccounting(t, "fault-campaign-determinism", a, b)
	if a.Panics != b.Panics {
		t.Errorf("panic counts differ across identical runs: %d vs %d", a.Panics, b.Panics)
	}
}

// TestCancellationWithReductionAndAnalysis pins mid-campaign cancellation
// with both the reduction stage and the analyzer enabled: the partial
// result is exactly the prefix campaign's accounting (reduced witnesses
// excepted — a cancelled context stops the reducer early).
func TestCancellationWithReductionAndAnalysis(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := Config{
		Fuzzer: fuzzers.NewComfort(), Testbeds: figure8Testbeds(),
		Cases: 100000, Seed: 2, Workers: 4,
		ReduceWitnesses: true, // reduction armed while the context dies mid-stream
		Progress: func(p Progress) {
			if p.Done == 25 {
				cancel()
			}
		},
		Context: ctx,
	}
	done := make(chan *Result, 1)
	go func() { done <- Run(cfg) }()
	var partial *Result
	select {
	case partial = <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("cancelled reduce+analyze campaign did not return")
	}
	if partial.CasesRun < 25 || partial.CasesRun >= 100000 {
		t.Fatalf("cancelled run accounted %d cases", partial.CasesRun)
	}
	if partial.FeatureCounts == nil {
		t.Fatal("analysis accounting missing from cancelled run")
	}
	// The accounted prefix must equal a fresh campaign over exactly that
	// budget (reduction off: cancelled reduction output is unspecified).
	fresh := Run(Config{
		Fuzzer: fuzzers.NewComfort(), Testbeds: figure8Testbeds(),
		Cases: partial.CasesRun, Seed: 2, Workers: 4,
	})
	requireSameAccounting(t, "cancel+reduce+analyze", fresh, partial)
}

// TestWriteCheckpointHook pins the Config.WriteCheckpoint seam the
// campaign server fences with its job lease: when set, the hook replaces
// the default WriteState call for every checkpoint write, the default
// path receives no bytes, the states it persists resume byte-identically
// — and a hook error counts as a checkpoint failure without changing
// what the campaign finds.
func TestWriteCheckpointHook(t *testing.T) {
	const cases, every = 40, 8
	base := func() Config {
		return Config{
			Fuzzer: fuzzers.NewComfort(), Testbeds: figure8Testbeds(),
			Cases: cases, Seed: 2, CheckpointEvery: every,
		}
	}
	want := Run(base())
	if want.CasesRun != cases {
		t.Fatalf("baseline ran %d cases, want %d", want.CasesRun, cases)
	}

	// Hooked run killed mid-campaign: the hook's file is the only
	// checkpoint, and resuming from it completes identically.
	dir := t.TempDir()
	defaultPath := filepath.Join(dir, "default.json")
	hookPath := filepath.Join(dir, "hook.json")
	writes := 0
	killCfg := base()
	killCfg.Checkpoint = defaultPath
	killCfg.WriteCheckpoint = func(st *State) error {
		writes++
		return WriteState(hookPath, st)
	}
	killCfg.Faults = faultinject.New(faultinject.Config{KillAtCheckpoints: []int{2}})
	killed := Run(killCfg)
	if killed.CasesRun != 2*every {
		t.Fatalf("killed run accounted %d cases, want %d", killed.CasesRun, 2*every)
	}
	if writes != 2 {
		t.Fatalf("hook saw %d writes before the kill, want 2", writes)
	}
	if _, err := os.Stat(defaultPath); !os.IsNotExist(err) {
		t.Fatalf("default checkpoint path written despite hook (err %v)", err)
	}
	st, err := LoadState(hookPath)
	if err != nil {
		t.Fatalf("hook-persisted state unreadable: %v", err)
	}
	resumeCfg := base()
	resumeCfg.Checkpoint = defaultPath
	resumeCfg.WriteCheckpoint = func(s *State) error { return WriteState(hookPath, s) }
	resumed, err := Resume(resumeCfg, st)
	if err != nil {
		t.Fatalf("resume from hook state: %v", err)
	}
	requireSameAccounting(t, "hooked kill+resume", want, resumed)

	// A hook that always fails: checkpoint failures are counted, the
	// campaign still completes, and the accounting is untouched — the
	// hook shapes where state lands, never what the campaign finds.
	failCfg := base()
	failCfg.WriteCheckpoint = func(*State) error { return fmt.Errorf("fenced") }
	failed := Run(failCfg)
	if failed.CheckpointFailures == 0 {
		t.Fatal("failing hook not accounted as checkpoint failures")
	}
	if failed.Checkpoints != 0 {
		t.Fatalf("failing hook counted %d successful checkpoints", failed.Checkpoints)
	}
	requireSameAccounting(t, "failing hook", want, failed)
}

// TestFingerprintGolden pins the checkpoint fingerprint of a config with
// every evaluator-mode field and DisableDedup set: checkpoints written by
// earlier builds must keep resuming, so the rendering may not drift.
func TestFingerprintGolden(t *testing.T) {
	cfg := Config{
		Fuzzer: &fixedFuzzer{}, Testbeds: engines.Testbeds()[:2],
		Cases: 40, Seed: 7, Fuel: 1000,
		Faults: faultinject.New(faultinject.Config{Seed: 3, PanicEvery: 5}),
	}
	cfg.DisableDedup = true
	cfg.DisableResolve, cfg.DisableCompile = true, true
	cfg.DisableShapes, cfg.DisableAnalyze = true, true
	const want = "comfort-campaign/v1 fuzzer=fixed seed=7 cases=40 fuel=1000 " +
		"testbeds=V8/V8.5@0e44fef#normal,V8/V8.5@0e44fef#strict " +
		"dedup=false resolve=false compile=false shapes=false analyze=false " +
		"faults=seed=3,panic=5,slow=0,probes=2"
	if got := fingerprint(cfg); got != want {
		t.Errorf("fingerprint drifted:\n got %s\nwant %s", got, want)
	}
}

// TestResumeCountersMatchUninterrupted: diagnostic counters are
// cumulative across resumes. A campaign killed right after its first
// checkpoint and resumed reports exactly as many checkpoint writes as an
// uninterrupted run, because each checkpoint counts the write that
// produced it. (Scheduler counters are cumulative too, but not equal:
// cases in flight at the kill ran before it and run again after it.)
func TestResumeCountersMatchUninterrupted(t *testing.T) {
	const cases, every = 200, 64
	mkCfg := func(path string) Config {
		return Config{
			Fuzzer: fuzzers.NewComfort(), Testbeds: figure8Testbeds()[:6],
			Cases: cases, Seed: 2, Workers: 2,
			Checkpoint: path, CheckpointEvery: every,
		}
	}
	dir := t.TempDir()
	want := Run(mkCfg(filepath.Join(dir, "whole.json")))
	if want.Checkpoints != 4 {
		t.Fatalf("uninterrupted run wrote %d checkpoints, want 4 (at 64, 128, 192 and the final flush)", want.Checkpoints)
	}

	path := filepath.Join(dir, "killed.json")
	killCfg := mkCfg(path)
	killCfg.Faults = faultinject.New(faultinject.Config{KillAtCheckpoints: []int{1}})
	Run(killCfg)
	st, err := LoadState(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Resume(mkCfg(path), st)
	if err != nil {
		t.Fatal(err)
	}
	requireSameAccounting(t, "kill@1+resume", want, got)
	if got.Checkpoints != want.Checkpoints || got.CheckpointFailures != want.CheckpointFailures {
		t.Errorf("resumed run counts %d checkpoints (%d failed), uninterrupted %d (%d failed)",
			got.Checkpoints, got.CheckpointFailures, want.Checkpoints, want.CheckpointFailures)
	}
	final, err := LoadState(path)
	if err != nil {
		t.Fatal(err)
	}
	if final.Checkpoints != got.Checkpoints {
		t.Errorf("final checkpoint records %d writes, result says %d", final.Checkpoints, got.Checkpoints)
	}
	if got.Compiled < want.Compiled || got.Analyzed < want.Analyzed {
		t.Errorf("resumed scheduler counters not cumulative: %d compiled, %d analyzed; uninterrupted %d, %d",
			got.Compiled, got.Analyzed, want.Compiled, want.Analyzed)
	}
}

// TestResumeRejectsImpossiblePositions: a checkpoint whose generator
// position no run of the campaign could have written is refused with an
// error naming the bad field, instead of silently re-running or skipping
// cases while the accounting claims otherwise. Valid positions of both a
// batch (Forkable) and a serial fuzzer still resume to the full budget.
func TestResumeRejectsImpossiblePositions(t *testing.T) {
	const cases, every = 40, 16
	mkCfg := func(f fuzzers.Fuzzer) Config {
		return Config{
			Fuzzer: f, Testbeds: figure8Testbeds()[:6],
			Cases: cases, Seed: 2, Workers: 2,
		}
	}
	killedState := func(f fuzzers.Fuzzer) State {
		path := filepath.Join(t.TempDir(), "ckpt.json")
		cfg := mkCfg(f)
		cfg.Checkpoint, cfg.CheckpointEvery = path, every
		cfg.Faults = faultinject.New(faultinject.Config{KillAtCheckpoints: []int{1}})
		Run(cfg)
		st, err := LoadState(path)
		if err != nil {
			t.Fatal(err)
		}
		return *st
	}
	batchSt := killedState(fuzzers.NewComfort())
	serialSt := killedState(fuzzers.NewDIE())
	if batchSt.NextBatch < 0 || serialSt.NextBatch != -1 || batchSt.CasesDone != every || serialSt.CasesDone != every {
		t.Fatalf("unexpected kill positions: batch (%d,%d), serial (%d,%d)",
			batchSt.NextBatch, batchSt.CasesDone, serialSt.NextBatch, serialSt.CasesDone)
	}
	for _, tc := range []struct {
		name    string
		serial  bool
		edit    func(*State)
		wantErr string // "" means the resume must complete the budget
	}{
		{"batch position as written", false, func(*State) {}, ""},
		{"serial position as written", true, func(*State) {}, ""},
		{"negative cases done", false, func(st *State) { st.CasesDone = -50 }, "cases accounted"},
		{"negative batch offset", false, func(st *State) { st.NextOff = -1 }, "offset"},
		{"batch below serial marker", false, func(st *State) { st.NextBatch = -2 }, "batch -2"},
		{"serial position on a batch fuzzer", false, func(st *State) { st.NextBatch = -1 }, "serial position"},
		{"serial position at zero on a batch fuzzer", false, func(st *State) { st.NextBatch, st.NextOff, st.CasesDone = -1, 0, 0 }, "serial position"},
		{"negative cases done on a serial fuzzer", true, func(st *State) { st.CasesDone = -1 }, "cases accounted"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, f := batchSt, fuzzers.Fuzzer(fuzzers.NewComfort())
			if tc.serial {
				st, f = serialSt, fuzzers.NewDIE()
			}
			tc.edit(&st)
			res, err := Resume(mkCfg(f), &st)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid position rejected: %v", err)
				}
				if res.CasesRun != cases {
					t.Fatalf("resume accounted %d cases, want %d", res.CasesRun, cases)
				}
				return
			}
			if err == nil {
				t.Fatalf("impossible position resumed (accounted %d of %d cases)", res.CasesRun, cases)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not name the bad field (want %q)", err, tc.wantErr)
			}
		})
	}
}

// TestStateWireFormatGolden pins the checkpoint JSON: a state with every
// key set round-trips through WriteState byte-identically (so no key is
// renamed, dropped or reordered and checkpoints written by earlier builds
// keep loading), and a real campaign's checkpoint carries exactly these
// top-level keys in this order.
func TestStateWireFormatGolden(t *testing.T) {
	const golden = `{
 "format": 1,
 "fingerprint": "comfort-campaign/v1 fuzzer=COMFORT seed=2",
 "cases_done": 64,
 "next_batch": 3,
 "next_off": 5,
 "done": false,
 "executed": 384,
 "verdicts": {
  "consistent": 60,
  "crash": 4
 },
 "duplicates_filtered": 7,
 "unattributed_findings": 2,
 "early_error_cases": 9,
 "flagged_nondet": 1,
 "feature_counts": {
  "closure": 12
 },
 "feature_bits": 4096,
 "dedup": {
  "root": {
   "V8": {
    "Array.prototype.map": {
     "crash|TypeError|": true
    }
   }
  },
  "leaves": 1,
  "hits": 3
 },
 "found": [
  {
   "defect_id": "v8-001",
   "test_case": "print(1);",
   "reduced": "1;",
   "verdict": "crash",
   "engine": "V8",
   "features": [
    "closure"
   ],
   "flags": [
    "random"
   ],
   "strict": true
  }
 ],
 "suppressed": [],
 "cache_hits": 101,
 "cache_misses": 102,
 "cache_evictions": 103,
 "compiled": 104,
 "fallback": 105,
 "ic_hits": 106,
 "ic_misses": 107,
 "ic_mega": 108,
 "analyzed": 109,
 "early_error_skips": 110,
 "panics": 111,
 "wall_timeouts": 112,
 "checkpoints": 113,
 "checkpoint_failures": 114
}
`
	var st State
	if err := json.Unmarshal([]byte(golden), &st); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "golden.json")
	if err := WriteState(path, &st); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != golden {
		t.Errorf("checkpoint encoding drifted:\n got %s\nwant %s", data, golden)
	}

	// A campaign's own checkpoint has the same key list, in order.
	ckpt := filepath.Join(t.TempDir(), "ckpt.json")
	Run(Config{
		Fuzzer: fuzzers.NewComfort(), Testbeds: figure8Testbeds()[:6],
		Cases: 20, Seed: 2, Workers: 2, Checkpoint: ckpt,
	})
	written, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	want, got := topLevelKeys(t, []byte(golden)), topLevelKeys(t, written)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("campaign checkpoint keys drifted:\n got %v\nwant %v", got, want)
	}
}

// topLevelKeys lists a JSON object's top-level keys in document order.
func topLevelKeys(t *testing.T, data []byte) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("not a JSON object: %v %v", tok, err)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}
