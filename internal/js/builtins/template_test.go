package builtins_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"comfort/internal/engines"
	"comfort/internal/js/builtins"
	"comfort/internal/js/interp"
	"comfort/internal/js/parser"
)

// fresh builds a realm the way the template itself was built: a full
// standard-library Install on a bare interpreter.
func fresh(cfg interp.Config) *interp.Interp {
	in := interp.New(cfg)
	builtins.Install(in)
	return in
}

// firstDiff renders the first differing line of two realm descriptions.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  %s\n  %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths %d vs %d lines", len(al), len(bl))
}

// TestRealmCopyMatchesFreshInstall is the structural realm-copy oracle: a
// copy of the template and a fresh Install are equal object by object —
// class, prototype link (by position), shape key order and attributes,
// slot values, pending lazy entries, attached method tables, native
// slots, the Protos/Ctors tables and zero invocation counts — and the
// copy carries the same per-run configuration.
func TestRealmCopyMatchesFreshInstall(t *testing.T) {
	want := interp.DescribeRealm(fresh(interp.Config{}))
	if got := builtins.Template().Describe(); got != want {
		t.Fatalf("template differs from a fresh install: %s", firstDiff(got, want))
	}
	// The comparison must cover the whole realm, not an empty rendering.
	for _, part := range []string{"#14 ", "lazy Math ", "lazy DataView ", "lazy TypeError ", "table ", "ctor RegExp=", "proto Function="} {
		if !strings.Contains(want, part) {
			t.Fatalf("realm description lacks %q:\n%s", part, want)
		}
	}
	// Fifteen objects (the global object, seven constructors, seven
	// prototypes), none of them ever invoked.
	if strings.Contains(want, "#15 ") || strings.Count(want, " invocations=0 ") != 15 {
		t.Fatalf("unexpected realm shape:\n%s", want)
	}
	for _, cfg := range []interp.Config{
		{},
		{Strict: true, Fuel: 1234, Seed: 7, MaxDepth: 9, MutableFuncName: true, SloppyStrictAssign: true, DisableCompile: true},
	} {
		cp, fr := builtins.NewRuntime(cfg), fresh(cfg)
		if got, want := interp.DescribeRealm(cp), interp.DescribeRealm(fr); got != want {
			t.Fatalf("%+v: copy differs from a fresh install: %s", cfg, firstDiff(got, want))
		}
		if cp.Strict != fr.Strict || cp.MutableFuncName != fr.MutableFuncName ||
			cp.SloppyStrictAssign != fr.SloppyStrictAssign || cp.DisableCompile != fr.DisableCompile ||
			cp.DisableShapes != fr.DisableShapes || cp.Now != fr.Now || cp.FuelUsed() != 0 || fr.FuelUsed() != 0 {
			t.Fatalf("%+v: per-run fields differ between copy and fresh realm", cfg)
		}
		if cp.Global == builtins.NewRuntime(cfg).Global {
			t.Fatal("two copies share a global object")
		}
	}
}

// mutator overwrites and deletes builtins, forces every lazy section and
// method table it can reach, and throws every error kind both from script
// and from inside the interpreter.
const mutator = `
Object.getOwnPropertyNames(globalThis);
var names = Object.getOwnPropertyNames(globalThis);
for (var i = 0; i < names.length; i++) {
  var v = globalThis[names[i]];
  if (v && (typeof v === "function" || typeof v === "object")) {
    Object.getOwnPropertyNames(v);
    if (v.prototype) Object.getOwnPropertyNames(v.prototype);
  }
}
var kinds = ["Error", "EvalError", "RangeError", "ReferenceError", "SyntaxError", "TypeError", "URIError", "InternalError"];
for (var k = 0; k < kinds.length; k++) {
  try { throw new globalThis[kinds[k]]("m" + k); } catch (e) { print(e.name + ":" + e.message); }
}
try { null.x; } catch (e) { print(e.name); }
try { notDefinedAnywhere; } catch (e) { print(e.name); }
try { new Array(-1); } catch (e) { print(e.name); }
try { eval("("); } catch (e) { print(e.name); }
Object.prototype.polluted = 1;
Array.prototype.push = function () { return "hijacked"; };
String.prototype.charAt = function () { return "z"; };
delete Object.keys;
delete Math.abs;
delete globalThis.parseInt;
Number.MAX_SAFE_INTEGER = 3;
JSON.stringify = null;
Error.prototype.name = "Changed";
globalThis.extra1 = 1; globalThis.extra2 = 2;
Object.defineProperty(Function.prototype, "call", { get: function () { return 1; } });
Object.freeze(Array.prototype);
Object.freeze(globalThis);
print([].push(1), "ab".charAt(0), typeof parseInt);
`

// probe observes the builtins mutator touches; it must print the same on
// a copy made after the mutation as on a fresh realm.
const probe = `
var a = []; a.push(1);
print(a.length, "ab".charAt(1), typeof Object.keys, Math.abs(-2), parseInt("7"),
  Number.MAX_SAFE_INTEGER, JSON.stringify({x: 1}), ({}).polluted, typeof globalThis.extra1,
  Object.isFrozen(Array.prototype), Object.getOwnPropertyNames(globalThis).length);
try { null.x; } catch (e) { print(e.name, e instanceof TypeError, e instanceof Error, String(e)); }
`

func runSrc(t *testing.T, in *interp.Interp, src string) string {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Run(prog); err != nil {
		t.Fatalf("run: %v", err)
	}
	return in.Out.String()
}

// TestRealmCopyIndependence: mutations in one copy reach neither the
// template nor any other copy, earlier or later, and leave the copy
// itself exactly as they leave a fresh realm.
func TestRealmCopyIndependence(t *testing.T) {
	tmpl := builtins.Template()
	before := tmpl.Describe()
	bystander := builtins.NewRuntime(interp.Config{})
	pristine := interp.DescribeRealm(bystander)

	victim := builtins.NewRuntime(interp.Config{})
	out := runSrc(t, victim, mutator)
	if !strings.Contains(out, "hijacked z undefined") {
		t.Fatalf("mutator did not take effect:\n%s", out)
	}
	mutated := interp.DescribeRealm(victim)
	if mutated == pristine {
		t.Fatal("mutated copy still describes as pristine")
	}
	// The copy's own graph after the mutation is exactly a fresh realm's
	// after the same program: no write landed outside the copy's objects.
	ref := fresh(interp.Config{})
	runSrc(t, ref, mutator)
	if want := interp.DescribeRealm(ref); mutated != want {
		t.Fatalf("mutated copy differs from a mutated fresh realm: %s", firstDiff(mutated, want))
	}
	if got := tmpl.Describe(); got != before {
		t.Fatalf("template changed under a copy's mutations: %s", firstDiff(got, before))
	}
	if got := interp.DescribeRealm(bystander); got != pristine {
		t.Fatalf("an earlier copy changed: %s", firstDiff(got, pristine))
	}
	later := builtins.NewRuntime(interp.Config{})
	if got := interp.DescribeRealm(later); got != pristine {
		t.Fatalf("a later copy inherited mutations: %s", firstDiff(got, pristine))
	}
	if got, want := runSrc(t, later, probe), runSrc(t, fresh(interp.Config{}), probe); got != want {
		t.Fatalf("later copy behaves differently from a fresh realm:\ncopy:  %s\nfresh: %s", got, want)
	}
}

// TestRealmCopyConcurrent runs mutating programs on concurrent copies;
// under -race any backing array two copies (or a copy and the template)
// share shows up as a data race.
func TestRealmCopyConcurrent(t *testing.T) {
	want := runSrc(t, fresh(interp.Config{}), mutator)
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				in := builtins.NewRuntime(interp.Config{})
				prog, err := parser.Parse(mutator)
				if err == nil {
					err = in.Run(prog)
				}
				if got := in.Out.String(); err != nil || got != want {
					errs <- fmt.Sprintf("concurrent copy: err %v, output\n%s\nwant\n%s", err, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestTemplateIsConfigIndependent: a fresh realm built under every
// catalog defect's configuration — its hook and Configure deltas, in both
// modes — equals the template, so one template serves every behaviour
// class and no defect's configuration can leak through it.
func TestTemplateIsConfigIndependent(t *testing.T) {
	want := builtins.Template().Describe()
	for _, d := range engines.Catalog() {
		for _, strict := range []bool{false, true} {
			cfg := interp.Config{Strict: strict, Hook: d.Hook}
			if d.Configure != nil {
				d.Configure(&cfg)
			}
			if got := interp.DescribeRealm(fresh(cfg)); got != want {
				t.Fatalf("%s (strict=%v): fresh realm differs from the template: %s", d.ID, strict, firstDiff(got, want))
			}
		}
	}
}
