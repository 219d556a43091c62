package gen

import (
	"math/rand"
	"testing"

	"comfort/internal/corpus"
	"comfort/internal/js/parser"
	"comfort/internal/lm"
)

func pipeline() *Pipeline {
	return New(lm.Train(corpus.Programs(), corpus.Headers(), lm.Config{Arch: lm.ArchGPT2}))
}

func TestBatchKeepsSomeInvalid(t *testing.T) {
	p := pipeline()
	rng := rand.New(rand.NewSource(3))
	batch := p.Batch(300, rng)
	valid, invalid := 0, 0
	for _, prog := range batch {
		if _, err := parser.Parse(prog.Source); prog.Valid != (err == nil) {
			t.Error("Valid flag disagrees with the parser")
		}
		if prog.Valid {
			valid++
		} else {
			invalid++
		}
	}
	if valid == 0 {
		t.Error("no valid programs")
	}
	// The paper keeps ~20% of invalid generations for parser fuzzing; with
	// a mostly-valid generator some invalid programs must still slip in.
	if invalid == 0 {
		t.Error("the 20%-invalid-kept rule produced nothing")
	}
	t.Logf("batch: %d valid, %d invalid", valid, invalid)
}

func TestNextDeterminism(t *testing.T) {
	p := pipeline()
	a := p.Next(rand.New(rand.NewSource(9)))
	b := p.Next(rand.New(rand.NewSource(9)))
	if a.Source != b.Source || a.Valid != b.Valid {
		t.Error("Next must be deterministic per seed")
	}
}
