package engines

import (
	"flag"

	"comfort/internal/js/analyze"
	"comfort/internal/js/ast"
	"comfort/internal/js/compile"
	"comfort/internal/js/parser"
	"comfort/internal/js/resolve"
)

// Mode selects which implementation of each evaluator layer executes. The
// zero value is the production path; each field switches one layer to its
// second implementation, kept in service as the reference of a
// differential oracle (DESIGN.md, "Evaluator modes"). Every mode has the
// same observable semantics — ExecResult.Semantics, fuel included — so a
// campaign's findings never depend on it. Mode is embedded by value in
// RunOptions, exec.Config, campaign.Config and server.Spec; the JSON keys
// are comfortd's spec.json wire format.
type Mode struct {
	// DisableResolve skips the resolve-once scope pass, leaving execution
	// on the interpreter's dynamic map-scope evaluator. It implies
	// DisableCompile: the compiler consumes scope annotations.
	DisableResolve bool `json:"disable_resolve,omitempty"`
	// DisableCompile skips the compile-once thunk pass and makes calls
	// ignore compiled bodies, so execution tree-walks the resolved AST.
	DisableCompile bool `json:"disable_compile,omitempty"`
	// DisableShapes keeps objects in dictionary (property map) layout and
	// the compiled evaluator's inline caches empty.
	DisableShapes bool `json:"disable_shapes,omitempty"`
	// DisableAnalyze recomputes the early-error verdict from the AST on
	// every execution instead of reading the report the parse cached on
	// the program; a campaign sink then also skips nondeterminism
	// suppression and feature accounting.
	DisableAnalyze bool `json:"disable_analyze,omitempty"`
}

// Parse parses src under opts and finishes the program for m: the
// resolve-once pass unless DisableResolve, the compile-once pass unless
// DisableResolve or DisableCompile, and the analyze-once report always
// (it consumes nothing but the raw AST, so every mode keeps identical
// early-error semantics). The result is never mutated again, so it may be
// shared across concurrent executions on every testbed whose parser
// options have opts's fingerprint.
func (m Mode) Parse(src string, opts parser.Options) (*ast.Program, error) {
	prog, err := parser.ParseWith(src, opts)
	if err != nil {
		return prog, err
	}
	if !m.DisableResolve {
		resolve.Program(prog)
		if !m.DisableCompile {
			compile.Program(prog)
		}
	}
	analyze.Program(prog)
	return prog, nil
}

// RegisterFlags binds m's fields to the -disable-* command-line flags.
func (m *Mode) RegisterFlags(fs *flag.FlagSet) {
	fs.BoolVar(&m.DisableResolve, "disable-resolve", false, "execute on the dynamic map-scope evaluator (implies -disable-compile)")
	fs.BoolVar(&m.DisableCompile, "disable-compile", false, "execute on the tree-walking evaluator instead of compiled thunks")
	fs.BoolVar(&m.DisableShapes, "disable-shapes", false, "execute with dictionary-mode objects and no inline caches")
	fs.BoolVar(&m.DisableAnalyze, "disable-analyze", false, "recompute early errors per execution; campaigns skip nondet suppression and feature accounting")
}
