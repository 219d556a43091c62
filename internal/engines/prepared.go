package engines

import (
	"sort"
	"strings"
	"sync"

	"comfort/internal/js/analyze"
	"comfort/internal/js/ast"
	"comfort/internal/js/builtins"
	"comfort/internal/js/interp"
	"comfort/internal/js/parser"
)

// PreparedTestbed is the one prepared executor: a defect set in one mode
// with everything that is constant across runs resolved once — the
// combined hook chain, the interpreter config deltas and the parser
// options. Testbed.Prepare builds it over a testbed's active defects,
// turning Testbed.Run's per-execution catalog scan + hook sort into a
// one-time cost, which matters when a campaign executes the same 102
// testbeds tens of thousands of times; NewDefectRunner builds it over a
// single defect for attribution and reduction.
type PreparedTestbed struct {
	Testbed Testbed

	defects  []*Defect      // active defects, catalog order
	preParse []*Defect      // subset with PreParse interceptors
	baseCfg  interp.Config  // Strict + Configure deltas + hook; per-run fields in newRealm
	parseOps parser.Options // Strict + ParserOpts deltas
	behavior string         // mode + active defect IDs; see BehaviorKey
}

var (
	preparedMu    sync.Mutex
	preparedCache = map[string]*PreparedTestbed{}
)

// Prepare resolves the testbed's defect set, hook chain and option deltas.
// Results are memoised per version×mode, so repeated calls are cheap.
func (tb Testbed) Prepare() *PreparedTestbed {
	key := tb.ID()
	preparedMu.Lock()
	defer preparedMu.Unlock()
	if p, ok := preparedCache[key]; ok {
		return p
	}
	p := prepare(tb.Strict, ActiveDefects(tb.Version))
	p.Testbed = tb
	preparedCache[key] = p
	return p
}

// prepare resolves the executor for defects (catalog order) in the given
// mode. Its Testbed is the zero version in that mode; Prepare overwrites
// it with the testbed prepared.
func prepare(strict bool, defects []*Defect) *PreparedTestbed {
	p := &PreparedTestbed{
		Testbed:  Testbed{Strict: strict},
		defects:  defects,
		baseCfg:  interp.Config{Strict: strict},
		parseOps: parser.Options{Strict: strict},
	}
	for _, d := range p.defects {
		if d.Configure != nil {
			d.Configure(&p.baseCfg)
		}
		if d.ParserOpts != nil {
			d.ParserOpts(&p.parseOps)
		}
		if d.PreParse != nil {
			p.preParse = append(p.preParse, d)
		}
	}
	p.baseCfg.Hook = combineHooks(p.defects, strict)
	var b strings.Builder
	if strict {
		b.WriteString("strict")
	} else {
		b.WriteString("normal")
	}
	for _, d := range p.defects {
		b.WriteByte('|')
		b.WriteString(d.ID)
	}
	p.behavior = b.String()
	return p
}

// BehaviorKey identifies the testbed's behaviour equivalence class: an
// execution's result is a pure function of the active defect set, the mode
// and the run options — the engine version itself is never consulted at run
// time — so two testbeds with equal keys produce identical ExecResults for
// every (src, fuel, seed). Schedulers exploit this to run each class once
// per case and fan the result out to all class members.
func (p *PreparedTestbed) BehaviorKey() string { return p.behavior }

// ActiveDefects returns the defects live in this testbed (shared slice; do
// not mutate).
func (p *PreparedTestbed) ActiveDefects() []*Defect { return p.defects }

// ParseOptions returns the resolved parser options for this testbed.
func (p *PreparedTestbed) ParseOptions() parser.Options { return p.parseOps }

// ParseFingerprint keys parse-and-resolve caches: two testbeds with equal
// fingerprints accept exactly the same programs with the same ASTs. The
// fingerprint also covers every resolver-relevant input — the resolve pass
// consumes nothing beyond the AST itself (scope layout is mode- and
// defect-independent in this subset), so parse equivalence implies
// compiled-program equivalence; parser/options_test.go pins the property.
func (p *PreparedTestbed) ParseFingerprint() uint64 { return p.parseOps.Fingerprint() }

// PreParseError runs the testbed's pre-parse defect interceptors (parser
// defects that reject valid programs before the shared parser sees them).
// It returns a non-empty SyntaxError rendering when one fires.
func (p *PreparedTestbed) PreParseError(src string) string {
	for _, d := range p.preParse {
		if msg := d.PreParse(src); msg != "" {
			return "SyntaxError: " + msg
		}
	}
	return ""
}

// Parse compiles src under the testbed's resolved parser options for the
// production Mode: a parse, the resolve-once scope pass, the compile-once
// thunk pass and the analyze-once report, so every execution of the
// returned program — the scheduler shares it across behaviour classes,
// and reduction predicates across their two testbeds — dispatches
// through closure thunks instead of re-walking the AST. The compiled form
// is sound under the same fingerprint key as the scope annotations: the
// compiler consumes nothing beyond the resolved AST (hooks, mode and fuel
// stay per-execution inputs of the shared runtime helpers the thunks
// call), so parse equivalence implies thunk equivalence.
func (p *PreparedTestbed) Parse(src string) (*ast.Program, error) {
	return Mode{}.Parse(src, p.parseOps)
}

// PreParseResult renders a PreParseError message as its ExecResult.
func PreParseResult(msg string) ExecResult {
	return ExecResult{Outcome: OutcomeParseError, Error: msg, ErrName: "SyntaxError"}
}

// Run executes src on the prepared testbed: pre-parse interceptors, a
// parse finished for opts.Mode, then Exec.
func (p *PreparedTestbed) Run(src string, opts RunOptions) ExecResult {
	return RunCell(p, src, func(p *PreparedTestbed, src string) (*ast.Program, error) {
		return opts.Mode.Parse(src, p.parseOps)
	}, opts)
}

// RunCell executes one (source, executor) cell: the executor's pre-parse
// interceptors, a caller-supplied parse (a cache, a ParseShare or a plain
// Mode.Parse), then ExecParsed. Every execution path — Run, the exec
// scheduler, difftest, Diverges and Attribute — funnels through here so
// the cell semantics cannot drift between them.
func RunCell(p *PreparedTestbed, src string,
	parse func(*PreparedTestbed, string) (*ast.Program, error), opts RunOptions) ExecResult {
	if msg := p.PreParseError(src); msg != "" {
		return PreParseResult(msg)
	}
	prog, err := parse(p, src)
	return p.ExecParsed(prog, err, opts)
}

// ParseShare holds one source's finished parses, one per parser-option
// fingerprint, so the executors of a cell group whose options coincide
// share one parse: a version and the reference in Diverges, the reference
// and every candidate without parser interceptors in Attribute, and the
// testbeds of a difftest.Execute case. A source meets few fingerprints
// (ten across all testbeds today, at most four in one attribution), so
// the entries live in a fixed array, which keeps a share off the heap; a
// fingerprint beyond it is parsed per call instead of shared. Not safe
// for concurrent use: make one per source and goroutine.
type ParseShare struct {
	mode    Mode
	n       int
	entries [16]sharedParse
}

type sharedParse struct {
	fp   uint64
	prog *ast.Program
	err  error
}

// NewParseShare returns an empty share whose parses are finished for mode.
func NewParseShare(mode Mode) *ParseShare { return &ParseShare{mode: mode} }

// Parse returns src's parse under p's options, parsing it on the first
// request per fingerprint. It has RunCell's parse signature; src must be
// the same on every call.
func (s *ParseShare) Parse(p *PreparedTestbed, src string) (*ast.Program, error) {
	fp := p.ParseFingerprint()
	for _, e := range s.entries[:s.n] {
		if e.fp == fp {
			return e.prog, e.err
		}
	}
	prog, err := s.mode.Parse(src, p.parseOps)
	if s.n < len(s.entries) {
		s.entries[s.n] = sharedParse{fp, prog, err}
		s.n++
	}
	return prog, err
}

// ExecParsed adapts an (already pre-parse-checked) parse result — typically
// from a parse cache — into an execution: a parse error classifies as
// OutcomeParseError, a static-semantics violation as a pre-execution
// SyntaxError, anything else interprets. Keeping this in one place stops
// the direct-run, difftest and scheduler paths from drifting apart.
func (p *PreparedTestbed) ExecParsed(prog *ast.Program, err error, opts RunOptions) ExecResult {
	if err != nil {
		return ExecResult{Outcome: OutcomeParseError, Error: err.Error(), ErrName: "SyntaxError"}
	}
	if res, bad := earlyErrorResult(prog, opts); bad {
		return res
	}
	return p.Exec(prog, opts)
}

// earlyErrorResult returns the pre-execution SyntaxError for a program
// the static analyzer rejects. The default path reads the report cached
// on the program by the parse pipeline; DisableAnalyze recomputes the
// verdict from the AST per execution — two implementations of identical
// semantics, exactly the DisableCompile oracle pattern. The report is
// never attached here: programs may already be shared across goroutines.
func earlyErrorResult(prog *ast.Program, opts RunOptions) (ExecResult, bool) {
	var rep *analyze.Report
	if opts.DisableAnalyze {
		rep = analyze.Analyze(prog)
	} else if rep = analyze.Of(prog); rep == nil {
		rep = analyze.Analyze(prog)
	}
	ee := rep.FirstError()
	if ee == nil {
		return ExecResult{}, false
	}
	return ExecResult{
		Outcome:    OutcomeParseError,
		Error:      ee.Render(),
		ErrName:    "SyntaxError",
		EarlyError: true,
	}, true
}

// Exec runs an already-parsed program. The program may be shared across
// concurrent Exec calls (the interpreter never mutates the AST), which is
// what enables the scheduler's parse-once source cache. Callers must have
// applied PreParseError to the original source themselves. The execution
// is panic-isolated: an evaluator panic classifies as an OutcomeCrash
// result (see runGuarded) instead of unwinding into the scheduler.
func (p *PreparedTestbed) Exec(prog *ast.Program, opts RunOptions) ExecResult {
	return runGuarded(newRealm(p.baseCfg, opts), prog, opts)
}

// newRealm builds the realm one execution runs in: base carries the
// testbed's (or single defect's) strictness, config deltas and hook, opts
// the per-run fuel, seed, evaluator mode, watchdog and coverage sink.
func newRealm(base interp.Config, opts RunOptions) *interp.Interp {
	base.Fuel, base.Seed = opts.Fuel, opts.Seed
	base.DisableCompile, base.DisableShapes = opts.DisableCompile, opts.DisableShapes
	base.Watchdog = opts.Watchdog
	in := builtins.NewRuntime(base)
	in.Cov = opts.Cov
	return in
}

// classifyRunError maps an interpreter error to the Figure-5 per-testbed
// outcome taxonomy.
func classifyRunError(res *ExecResult, runErr error) {
	switch e := runErr.(type) {
	case nil:
		res.Outcome = OutcomePass
	case *interp.Throw:
		res.Outcome = OutcomeException
		res.Error = e.Error()
		res.ErrName = interp.ErrorName(e.Val)
	case *interp.Abort:
		switch e.Kind {
		case interp.AbortCrash:
			res.Outcome = OutcomeCrash
			res.Error = e.Error()
			res.ErrName = "crash"
		case interp.AbortDeadline:
			res.Outcome = OutcomeTimeout
			res.Error = e.Error()
			res.ErrName = "timeout"
			res.WallClock = true
		default:
			res.Outcome = OutcomeTimeout
			res.Error = e.Error()
			res.ErrName = "timeout"
		}
	default:
		res.Outcome = OutcomeCrash
		res.Error = runErr.Error()
		res.ErrName = "crash"
	}
}

// combineHooks merges the active defects' hooks; the first override wins.
func combineHooks(defects []*Defect, strict bool) interp.Hook {
	var hooks []*Defect
	for _, d := range defects {
		if d.Hook != nil {
			if d.StrictOnly && !strict {
				continue
			}
			hooks = append(hooks, d)
		}
	}
	switch len(hooks) {
	case 0:
		return nil
	case 1:
		return hooks[0].Hook
	}
	sort.SliceStable(hooks, func(i, j int) bool { return hooks[i].ID < hooks[j].ID })
	return func(ctx *interp.HookCtx) *interp.Override {
		for _, d := range hooks {
			if ov := d.Hook(ctx); ov != nil {
				return ov
			}
		}
		return nil
	}
}
