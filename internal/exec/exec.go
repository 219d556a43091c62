// Package exec is the execution scheduler for differential-testing
// campaigns. It schedules the (case × testbed) grid over a bounded worker
// pool, shares parses through a campaign-wide parse-once cache (keyed by
// source + parser-option fingerprint), honours context cancellation, and
// streams classified case results to the consumer in case order — so a
// campaign can account findings as they arrive instead of materialising
// every case and every result in memory first.
package exec

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"comfort/internal/difftest"
	"comfort/internal/engines"
	"comfort/internal/faultinject"
	"comfort/internal/js/analyze"
	"comfort/internal/js/ast"
)

// Case is one fuzzer-generated test program, tagged with its position in
// the campaign's deterministic generation order. Batch/Off locate the case
// in the generator's batch structure (batch number and offset within it)
// so a checkpoint can record an exact generator restart position; serial
// generators stamp Batch = -1 and resume by index instead.
type Case struct {
	Index int
	Src   string
	Batch int
	Off   int
}

// Outcome is the classified result of one case across all testbeds.
// Entries are in testbed order (the scheduler's configured order), so the
// outcome is independent of worker interleaving.
type Outcome struct {
	Case
	Entries []difftest.ExecEntry
	Result  difftest.CaseResult
	// Analysis is the case's static-semantics report (divergence-risk
	// flags, feature fingerprint), shared from the parse cache. Nil when
	// the case failed to parse or the scheduler runs with
	// Mode.DisableAnalyze — that sink must see exactly the no-analyzer
	// pipeline.
	Analysis *analyze.Report
}

// Config parameterises a scheduler.
type Config struct {
	Testbeds []engines.Testbed
	// Workers bounds concurrent testbed executions; <=0 means GOMAXPROCS.
	Workers int
	Fuel    int64
	Seed    int64
	// ParseCacheCap bounds the compiled-program cache's entry count; <=0
	// means the default (4096). Eviction is generational: when the young
	// generation fills, the old generation is dropped and the young one
	// ages — entries touched within the last generation survive, so a long
	// campaign never re-parses its entire live working set at once.
	ParseCacheCap int
	// Mode selects the evaluator implementations.
	engines.Mode
	// CaseDeadline, when positive, arms a wall-clock watchdog on every
	// physical execution: the interpreter probes Clock at its fuel-charge
	// site and aborts with a classified timeout once the deadline passes.
	// This is a robustness guard against pathological cases, not part of
	// the deterministic oracle — a firing deadline depends on machine
	// speed, which is why the deterministic fuel budget remains the
	// primary timeout axis and the deadline defaults to off.
	CaseDeadline time.Duration
	// Clock supplies wall time for CaseDeadline (the scheduler never calls
	// time.Now itself — determinism-sensitive callers inject nothing and
	// stay clock-free). Required when CaseDeadline > 0.
	Clock func() time.Time
	// Faults is the deterministic fault-injection plan, nil in production.
	// An injected fault targets exactly one behaviour class of its case so
	// the faulted execution deviates from the healthy majority and
	// surfaces as a finding.
	Faults *faultinject.Plan
	// Gate, when non-nil, is a shared execution-slot pool acquired around
	// every physical run — several schedulers in one process (the campaign
	// server's shared worker pool) bound their combined parallelism with
	// one Gate. Gating changes scheduling only, never outcomes: see
	// gate.go.
	Gate Gate
}

// Scheduler executes cases over prepared testbeds. One Scheduler is one
// campaign's worth of shared state (prepared testbeds, behaviour classes,
// parse cache); Run may be called once per input stream.
type Scheduler struct {
	cfg      Config
	prepared []*engines.PreparedTestbed
	// classes groups testbed indices by behaviour equivalence class: an
	// ExecResult is a pure function of (defect set, mode, fuel, seed, src),
	// so each class executes once per case and the result fans out to every
	// member. classRep[k] is the prepared testbed the class executes on.
	classes  [][]int
	classRep []*engines.PreparedTestbed
	cache    *parseCache
	// The live counters behind Counters (the parse cache keeps its own
	// three); see Counters for what each one counts.
	compiled, fallback    atomic.Int64
	icHit, icMiss, icMega atomic.Uint64
	analyzed, earlySkips  atomic.Int64
	panics, wallTimeouts  atomic.Int64
}

// New builds a scheduler: testbeds are prepared up front (catalog scan,
// hook chain, option resolution happen here, never per execution) and
// grouped into behaviour classes.
func New(cfg Config) *Scheduler {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Fuel == 0 {
		cfg.Fuel = difftest.DefaultFuel
	}
	if len(cfg.Testbeds) == 0 {
		cfg.Testbeds = engines.LatestTestbeds()
	}
	s := &Scheduler{cfg: cfg, cache: newParseCache(cfg.ParseCacheCap, cfg.Mode)}
	classOf := map[string]int{}
	for _, tb := range cfg.Testbeds {
		p := tb.Prepare()
		i := len(s.prepared)
		s.prepared = append(s.prepared, p)
		k, ok := classOf[p.BehaviorKey()]
		if !ok {
			k = len(s.classes)
			classOf[p.BehaviorKey()] = k
			s.classes = append(s.classes, nil)
			s.classRep = append(s.classRep, p)
		}
		s.classes[k] = append(s.classes[k], i)
	}
	return s
}

// Classes reports how many distinct behaviour classes the configured
// testbeds collapse into (of interest to benchmarks and progress output).
func (s *Scheduler) Classes() int { return len(s.classes) }

// Counters is the scheduler's diagnostic counter set. It is the single
// path every diagnostic takes out of a campaign: campaign.Progress and
// campaign.Result embed it, and the checkpoint carries it (as a tagged
// twin) so totals stay cumulative across resumes. Counters describe
// physical work, not findings, so they stay out of the accounting
// contract and the checkpoint fingerprint. A new counter or timer is one
// field here, summed by Add.
type Counters struct {
	// CacheHits/CacheMisses/CacheEvictions are the compiled-program
	// (parse-and-resolve-once) cache counters.
	CacheHits, CacheMisses, CacheEvictions int64
	// Compiled/Fallback count physical interpreter runs by evaluator
	// path: thunk-compiled programs vs tree-walked ones (ablation modes,
	// or programs the compiler declined). In the default configuration
	// Fallback stays at zero.
	Compiled, Fallback int64
	// ICHits/ICMisses/ICMega are the compiled evaluator's inline-cache
	// counters (all zero under DisableShapes or DisableCompile).
	ICHits, ICMisses, ICMega uint64
	// Analyzed counts class executions that rode the analyze-once cached
	// report; EarlyErrorSkips counts executions the static early-error
	// gate short-circuited before any interpreter ran (in both analyze
	// modes).
	Analyzed, EarlyErrorSkips int64
	// Panics/WallTimeouts count physical executions that ended in a
	// recovered evaluator panic or a wall-clock watchdog abort (injected
	// or real).
	Panics, WallTimeouts int64
}

// Add returns the field-wise sum of c and o.
func (c Counters) Add(o Counters) Counters {
	return Counters{
		CacheHits:       c.CacheHits + o.CacheHits,
		CacheMisses:     c.CacheMisses + o.CacheMisses,
		CacheEvictions:  c.CacheEvictions + o.CacheEvictions,
		Compiled:        c.Compiled + o.Compiled,
		Fallback:        c.Fallback + o.Fallback,
		ICHits:          c.ICHits + o.ICHits,
		ICMisses:        c.ICMisses + o.ICMisses,
		ICMega:          c.ICMega + o.ICMega,
		Analyzed:        c.Analyzed + o.Analyzed,
		EarlyErrorSkips: c.EarlyErrorSkips + o.EarlyErrorSkips,
		Panics:          c.Panics + o.Panics,
		WallTimeouts:    c.WallTimeouts + o.WallTimeouts,
	}
}

// Counters snapshots the scheduler's counters so far. Each field is read
// atomically; the snapshot as a whole is not, so a read racing live
// executions may see one counter a run ahead of another.
func (s *Scheduler) Counters() Counters {
	return Counters{
		CacheHits:       s.cache.hits.Load(),
		CacheMisses:     s.cache.misses.Load(),
		CacheEvictions:  s.cache.evictions.Load(),
		Compiled:        s.compiled.Load(),
		Fallback:        s.fallback.Load(),
		ICHits:          s.icHit.Load(),
		ICMisses:        s.icMiss.Load(),
		ICMega:          s.icMega.Load(),
		Analyzed:        s.analyzed.Load(),
		EarlyErrorSkips: s.earlySkips.Load(),
		Panics:          s.panics.Load(),
		WallTimeouts:    s.wallTimeouts.Load(),
	}
}

// caseState tracks one in-flight case across its testbed executions.
type caseState struct {
	seq       int // receipt order; outcomes are emitted in this order
	c         Case
	entries   []difftest.ExecEntry
	remaining int32
	cancelled int32 // set when any execution was skipped due to cancellation
}

type task struct {
	cs    *caseState
	class int // index into Scheduler.classes
}

// Run consumes cases from in and returns a channel of outcomes, emitted in
// the order cases were received. The channel is closed when all input has
// been processed or ctx is cancelled; cancellation never deadlocks — all
// scheduler goroutines drain and exit. The emitted outcomes are always a
// contiguous prefix of the case sequence: once cancellation drops one
// case (or pre-empts one emission), no later case is emitted either, even
// if it happened to execute fully before the workers saw the cancel.
func (s *Scheduler) Run(ctx context.Context, in <-chan Case) <-chan Outcome {
	nTB := len(s.prepared)
	nCls := len(s.classes)
	inflight := s.cfg.Workers + 2
	out := make(chan Outcome)
	tasks := make(chan task, inflight*nCls)
	done := make(chan *caseState, inflight)
	sem := make(chan struct{}, inflight)

	// Intake: admit cases under the in-flight cap and fan each one out
	// into one task per testbed.
	go func() {
		defer close(tasks)
		seq := 0
		for {
			var c Case
			var ok bool
			select {
			case <-ctx.Done():
				return
			case c, ok = <-in:
				if !ok {
					return
				}
			}
			select {
			case <-ctx.Done():
				return
			case sem <- struct{}{}:
			}
			cs := &caseState{
				seq:       seq,
				c:         c,
				entries:   make([]difftest.ExecEntry, nTB),
				remaining: int32(nCls),
			}
			seq++
			for i := 0; i < nCls; i++ {
				// tasks is buffered for inflight full cases, so this send
				// only blocks when workers are saturated.
				tasks <- task{cs: cs, class: i}
			}
		}
	}()

	// Workers: the bounded execution pool.
	var wg sync.WaitGroup
	for w := 0; w < s.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range tasks {
				if !s.acquireSlot(ctx) {
					atomic.StoreInt32(&t.cs.cancelled, 1)
				} else {
					r := s.runOne(t.class, t.cs.c)
					s.releaseSlot()
					for _, i := range s.classes[t.class] {
						t.cs.entries[i] = difftest.ExecEntry{
							Testbed: s.prepared[i].Testbed,
							Result:  r,
						}
					}
				}
				if atomic.AddInt32(&t.cs.remaining, -1) == 0 {
					// done is buffered to the in-flight cap, so this send
					// cannot block even after the collector has exited.
					done <- t.cs
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(done)
	}()

	// Collector: reorder completed cases into receipt order and classify.
	go func() {
		defer close(out)
		next := 0
		dropped := false
		pending := map[int]*caseState{}
		for cs := range done {
			pending[cs.seq] = cs
			for {
				c, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				next++
				<-sem
				if atomic.LoadInt32(&c.cancelled) != 0 {
					// A partially-executed case is dropped; later cases may
					// still complete (their tasks ran before cancellation
					// reached their worker), but emitting them would punch a
					// hole in the in-order stream — the emitted outcomes
					// must stay a contiguous prefix of the case sequence.
					dropped = true
				}
				if dropped {
					continue
				}
				oc := Outcome{Case: c.c, Entries: c.entries, Result: difftest.Classify(c.entries)}
				if !s.cfg.DisableAnalyze {
					oc.Analysis = s.analysisFor(c.c.Src)
				}
				select {
				case out <- oc:
				case <-ctx.Done():
					// The consumer may be gone; keep draining without
					// emitting so the workers can finish. This case can win
					// even while the consumer still listens, so stop
					// emitting altogether — the prefix contract again.
					dropped = true
				}
			}
		}
	}()
	return out
}

// acquireSlot gates one physical run: a cancelled context reports false
// (the case is marked cancelled, preserving the contiguous-prefix
// contract exactly as the pre-gate cancellation check did).
func (s *Scheduler) acquireSlot(ctx context.Context) bool {
	if ctx.Err() != nil {
		return false
	}
	if s.cfg.Gate == nil {
		return true
	}
	return s.cfg.Gate.Acquire(ctx) == nil
}

func (s *Scheduler) releaseSlot() {
	if s.cfg.Gate != nil {
		s.cfg.Gate.Release()
	}
}

// runOne executes one (case, behaviour class) cell through the shared
// engines.RunCell semantics, with the campaign-wide parse cache supplying
// compiled programs; the parse hook accounts which evaluator the
// execution runs on. Fault injection and the wall-clock watchdog are
// armed here, per physical run, so shared-class fan-out replicates the
// (deterministic) faulted result instead of re-rolling it.
func (s *Scheduler) runOne(class int, c Case) engines.ExecResult {
	p := s.classRep[class]
	opts := engines.RunOptions{Fuel: s.cfg.Fuel, Seed: s.cfg.Seed, Mode: s.cfg.Mode}
	if fault, sel := s.cfg.Faults.CaseFault(c.Index); fault != faultinject.FaultNone &&
		class == int(sel%uint64(len(s.classes))) {
		switch fault {
		case faultinject.FaultPanic:
			opts.InjectPanic = true
		case faultinject.FaultSlow:
			opts.Watchdog = faultinject.CountdownWatchdog(s.cfg.Faults.SlowProbes())
		}
	}
	if opts.Watchdog == nil && s.cfg.CaseDeadline > 0 && s.cfg.Clock != nil {
		start := s.cfg.Clock()
		deadline := s.cfg.CaseDeadline
		opts.Watchdog = func() bool { return s.cfg.Clock().Sub(start) > deadline }
	}
	r := engines.RunCell(p, c.Src, s.countingParse, opts)
	if r.Panic {
		s.panics.Add(1)
	}
	if r.WallClock {
		s.wallTimeouts.Add(1)
	}
	if r.EarlyError {
		s.earlySkips.Add(1)
	}
	if r.ICHit != 0 {
		s.icHit.Add(r.ICHit)
	}
	if r.ICMiss != 0 {
		s.icMiss.Add(r.ICMiss)
	}
	if r.ICMega != 0 {
		s.icMega.Add(r.ICMega)
	}
	return r
}

// analysisFor fetches the case's static-semantics report through the
// parse cache (a hit for any case that just executed). The first class
// representative is the deterministic choice of parse fingerprint, so
// the report a sink sees never depends on worker interleaving.
func (s *Scheduler) analysisFor(src string) *analyze.Report {
	prog, err := s.cache.parse(s.classRep[0], src)
	if err != nil {
		return nil
	}
	return analyze.Of(prog)
}

// countingParse wraps the cache parse with the compiled/fallback
// execution counters (parse errors count in neither, and neither do
// programs the early-error gate stops before an evaluator runs).
func (s *Scheduler) countingParse(p *engines.PreparedTestbed, src string) (*ast.Program, error) {
	prog, err := s.cache.parse(p, src)
	if err == nil {
		rep := analyze.Of(prog)
		if !s.cfg.DisableAnalyze && rep != nil {
			s.analyzed.Add(1)
		}
		if rep.Invalid() {
			return prog, err
		}
		if prog.Compiled != nil && !s.cfg.DisableCompile {
			s.compiled.Add(1)
		} else {
			s.fallback.Add(1)
		}
	}
	return prog, err
}

// FromSlice adapts a fixed case list to the scheduler's input channel,
// indexing cases by position.
func FromSlice(ctx context.Context, srcs []string) <-chan Case {
	ch := make(chan Case)
	go func() {
		defer close(ch)
		for i, src := range srcs {
			select {
			case <-ctx.Done():
				return
			case ch <- Case{Index: i, Src: src, Batch: -1, Off: i}:
			}
		}
	}()
	return ch
}

// ---------- compiled-program (parse-and-resolve-once) cache ----------

type parseKey struct {
	fp  uint64
	src string
}

type parsedResult struct {
	prog *ast.Program
	err  error
}

// parseCache shares compiled programs — parsed and scope-resolved ASTs —
// between the testbeds (and cases) whose resolved parser options coincide.
// Sharing the *ast.Program across concurrent interpreter runs is safe
// because execution never mutates the tree; the resolve pass runs exactly
// once, before the program is published.
//
// Eviction is generational: entries are inserted into a young generation,
// and when it reaches half the configured cap the old generation's entries
// are discarded while the young generation ages in their place. A hit in
// the old generation promotes the entry back to young. Total residency
// stays bounded by cap, but — unlike the previous wholesale reset — the
// working set a long campaign touched within the last generation survives
// every eviction, so the scheduler never stalls re-parsing everything at
// once.
type parseCache struct {
	mu        sync.RWMutex
	young     map[parseKey]parsedResult
	old       map[parseKey]parsedResult
	genCap    int
	mode      engines.Mode
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

const defaultParseCacheCap = 4096

func newParseCache(cap int, mode engines.Mode) *parseCache {
	if cap <= 0 {
		cap = defaultParseCacheCap
	}
	genCap := cap / 2
	if genCap < 1 {
		genCap = 1
	}
	return &parseCache{
		young:  make(map[parseKey]parsedResult),
		old:    make(map[parseKey]parsedResult),
		genCap: genCap,
		mode:   mode,
	}
}

func (pc *parseCache) parse(p *engines.PreparedTestbed, src string) (*ast.Program, error) {
	key := parseKey{fp: p.ParseFingerprint(), src: src}
	pc.mu.RLock()
	r, inYoung := pc.young[key]
	ok := inYoung
	if !ok {
		r, ok = pc.old[key]
	}
	pc.mu.RUnlock()
	if ok {
		pc.hits.Add(1)
		if !inYoung {
			// Old-generation hit: promote so the entry survives the next
			// rotation, and remove the aged copy so it is not counted as
			// an eviction later. The write lock is brief and only taken
			// while the working set re-warms after a rotation.
			pc.mu.Lock()
			if _, dup := pc.young[key]; !dup {
				delete(pc.old, key)
				pc.insertLocked(key, r)
			}
			pc.mu.Unlock()
		}
		return r.prog, r.err
	}
	pc.misses.Add(1)
	// The entry stores whatever the mode's passes attach (scope
	// annotations, thunks, analysis) under the parser-option fingerprint.
	r.prog, r.err = pc.mode.Parse(src, p.ParseOptions())
	pc.mu.Lock()
	pc.insertLocked(key, r)
	pc.mu.Unlock()
	return r.prog, r.err
}

// insertLocked adds an entry to the young generation, rotating the
// generations when young is full. Callers hold mu.
func (pc *parseCache) insertLocked(key parseKey, r parsedResult) {
	if len(pc.young) >= pc.genCap {
		pc.evictions.Add(int64(len(pc.old)))
		pc.old = pc.young
		pc.young = make(map[parseKey]parsedResult, pc.genCap)
	}
	pc.young[key] = r
}
