package builtins

import (
	"testing"

	"comfort/internal/js/interp"
	"comfort/internal/js/parser"
)

// BenchmarkNewRuntime measures realm construction as executions get it —
// a copy of the process's realm template. A differential campaign builds
// a realm for every physical testbed execution, so this is a direct term
// in campaign throughput (EXPERIMENTS.md records the trajectory).
func BenchmarkNewRuntime(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewRuntime(interp.Config{})
	}
}

// BenchmarkNewRuntimeFresh measures fresh realm construction — one full
// standard-library Install on a bare interpreter — the path DisableShapes
// realms and the template itself take, and the reference the copy is
// checked against.
func BenchmarkNewRuntimeFresh(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Install(interp.New(interp.Config{}))
	}
}

// BenchmarkRuntimeFirstUse measures a realm build plus one trivial
// execution touching print — the cost a minimal program actually pays,
// including the lazily materialised globals it reaches.
func BenchmarkRuntimeFirstUse(b *testing.B) {
	prog, err := parser.Parse("print(1+2);")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := NewRuntime(interp.Config{})
		if err := in.Run(prog); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLazyInstallPreservesEnumerationOrder pins engine fidelity of the
// lazy builtin registration: own-property order of builtin namespace
// objects must not depend on which members a program touched first.
func TestLazyInstallPreservesEnumerationOrder(t *testing.T) {
	names := func(prelude string) string {
		in := NewRuntime(interp.Config{Fuel: 500000})
		prog, err := parser.Parse(prelude + `print(Object.getOwnPropertyNames(Math).join(","));` +
			`print(Object.getOwnPropertyNames(String.prototype).join(","));`)
		if err != nil {
			t.Fatal(err)
		}
		if err := in.Run(prog); err != nil {
			t.Fatal(err)
		}
		return in.Out.String()
	}
	cold := names("")
	warm := names(`Math.sqrt(4); "x".padStart(3); "y".charAt(0);`)
	if cold != warm {
		t.Errorf("builtin enumeration order depends on access order:\ncold: %s\nwarm: %s", cold, warm)
	}
}
