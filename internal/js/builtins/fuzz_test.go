package builtins_test

import (
	"fmt"
	"testing"

	"comfort/internal/corpus"
	"comfort/internal/engines"
	"comfort/internal/js/ast"
	"comfort/internal/js/builtins"
	"comfort/internal/js/compile"
	"comfort/internal/js/interp"
	"comfort/internal/js/parser"
	"comfort/internal/js/resolve"
)

// realmOutcome is what a run observably produced.
type realmOutcome struct {
	output, outcome, errName string
	fuel                     int64
}

// runRealm executes prog on in — compiled thunks unless tree — and
// classifies the result; an evaluator panic is an outcome, not a crash
// of the caller.
func runRealm(in *interp.Interp, prog *ast.Program, tree bool) (o realmOutcome) {
	defer func() {
		if r := recover(); r != nil {
			o = realmOutcome{output: in.Out.String(), outcome: fmt.Sprint("panic: ", r), fuel: in.FuelUsed()}
		}
	}()
	var err error
	if cp := compile.Of(prog); cp != nil && !tree {
		err = cp.Run(in)
	} else {
		err = in.Run(prog)
	}
	o = realmOutcome{output: in.Out.String(), outcome: "pass", fuel: in.FuelUsed()}
	switch e := err.(type) {
	case nil:
	case *interp.Throw:
		o.outcome, o.errName = "exception: "+e.Error(), interp.ErrorName(e.Val)
	default:
		o.outcome = "abort: " + err.Error()
	}
	return o
}

// FuzzRealmCopy checks realm copies against fresh construction on
// arbitrary sources: for every source that parses, output, outcome, error
// name and fuel must be identical on a copy of the realm template and on a
// freshly installed realm, on both the compiled and the tree-walking
// evaluator. Seeds are the embedded corpus, its fragments, every catalog
// defect's witness and the builtin-mutating programs of the independence
// test.
func FuzzRealmCopy(f *testing.F) {
	for _, src := range corpus.Programs() {
		f.Add(src)
	}
	for _, src := range corpus.Fragments() {
		f.Add(src)
	}
	for _, d := range engines.Catalog() {
		f.Add(d.Witness)
	}
	f.Add(mutator)
	f.Add(probe)
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := parser.Parse(src)
		if err != nil {
			return
		}
		resolve.Program(prog)
		compile.Program(prog)
		for _, tree := range []bool{false, true} {
			cfg := interp.Config{Fuel: 50000, Seed: 3, DisableCompile: tree}
			copied := runRealm(builtins.NewRuntime(cfg), prog, tree)
			freshRes := runRealm(fresh(cfg), prog, tree)
			if copied != freshRes {
				t.Fatalf("tree=%v: copied realm diverges from fresh install\ncopy:  %+v\nfresh: %+v", tree, copied, freshRes)
			}
		}
	})
}
