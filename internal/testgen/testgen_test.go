package testgen

import (
	"math/rand"
	"strings"
	"testing"

	"comfort/internal/js/parser"
	"comfort/internal/spec"
)

const substrProgram = `function foo(str, start, len) {
  var ret = str.substr(start, len);
  return ret;
}
var s = "Name: Albert";
var len = 6;
print(foo(s, 6, len));`

func TestFindMutationPoints(t *testing.T) {
	points, err := FindMutationPoints(substrProgram, spec.Default())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points: %d want 2 (start, length)", len(points))
	}
	if points[0].API != "String.prototype.substr" {
		t.Errorf("API: %s", points[0].API)
	}
	// The len argument is an identifier declared by a var statement: the
	// data-flow association must find it.
	if points[1].DeclName != "len" {
		t.Errorf("data-flow association failed: %+v", points[1])
	}
}

func TestMutateProducesBoundaryVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	variants := Mutate(substrProgram, spec.Default(), rng, Options{MaxVariants: 40})
	if len(variants) < 10 {
		t.Fatalf("too few variants: %d", len(variants))
	}
	sawUndefined, sawDeclRewrite := false, false
	for _, v := range variants {
		if _, err := parser.Parse(v.Source); err != nil {
			t.Errorf("invalid variant:\n%s", v.Source)
		}
		if strings.Contains(v.Source, "substr(6, undefined)") ||
			strings.Contains(v.Source, "var len = undefined") {
			sawUndefined = true
		}
		if strings.Contains(v.Source, "var len = NaN") ||
			strings.Contains(v.Source, "var len = Infinity") {
			sawDeclRewrite = true
		}
	}
	if !sawUndefined {
		t.Error("the undefined boundary probe (the Figure-2 trigger) was never generated")
	}
	if !sawDeclRewrite {
		t.Error("declaration-initialiser rewriting never happened")
	}
}

func TestMutateHandlesGlobalAPIs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	variants := Mutate(`print(parseInt("42", 10));`, spec.Default(), rng, Options{MaxVariants: 10})
	if len(variants) == 0 {
		t.Fatal("global APIs (parseInt) must be mutated too")
	}
}

func TestMutateNoAPINoVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if vs := Mutate(`var x = 1 + 2;`, spec.Default(), rng, Options{}); len(vs) != 0 {
		t.Errorf("no API calls, expected no variants, got %d", len(vs))
	}
	if vs := Mutate(`var broken = (;`, spec.Default(), rng, Options{}); len(vs) != 0 {
		t.Errorf("unparseable input, expected no variants, got %d", len(vs))
	}
}

func TestMutateRespectsCap(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	vs := Mutate(substrProgram, spec.Default(), rng, Options{MaxVariants: 3})
	if len(vs) > 3 {
		t.Errorf("cap violated: %d", len(vs))
	}
}
