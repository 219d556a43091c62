package lm

import (
	"math/rand"
	"strings"
	"testing"

	"comfort/internal/corpus"
	"comfort/internal/js/parser"
)

func TestTokenizeRoundTrip(t *testing.T) {
	for _, src := range corpus.Programs()[:10] {
		tokens := TokenizeCode(src)
		var b strings.Builder
		for _, tok := range tokens {
			b.WriteString(tok)
		}
		// Space runs collapse; everything else must round-trip.
		norm := func(s string) string {
			for strings.Contains(s, "  ") {
				s = strings.ReplaceAll(s, "  ", " ")
			}
			return strings.ReplaceAll(s, "\t", " ")
		}
		if norm(b.String()) != norm(src) {
			t.Errorf("tokenize round trip failed:\n%q\n%q", norm(src), norm(b.String()))
		}
	}
}

func trainDefault(t *testing.T, arch Arch) *Generator {
	t.Helper()
	return Train(corpus.Programs(), corpus.Headers(), Config{Arch: arch})
}

func TestGeneratorProducesParseableCode(t *testing.T) {
	g := trainDefault(t, ArchGPT2)
	rng := rand.New(rand.NewSource(7))
	valid := 0
	const n = 200
	for i := 0; i < n; i++ {
		src := g.Generate(rng)
		if src == "" {
			t.Fatal("empty generation")
		}
		if _, err := parser.Parse(src); err == nil {
			valid++
		}
	}
	rate := float64(valid) / n
	// The paper reports ~80% syntactic validity for the GPT-2 generator.
	if rate < 0.6 {
		t.Errorf("GPT-2-substitute validity %.2f, expected >= 0.6", rate)
	}
	t.Logf("gpt2 validity: %.2f", rate)
}

func TestLongContextBeatsShortContext(t *testing.T) {
	gpt := trainDefault(t, ArchGPT2)
	lstm := trainDefault(t, ArchLSTM)
	rngA := rand.New(rand.NewSource(11))
	rngB := rand.New(rand.NewSource(11))
	const n = 150
	validGPT, validLSTM := 0, 0
	for i := 0; i < n; i++ {
		if _, err := parser.Parse(gpt.Generate(rngA)); err == nil {
			validGPT++
		}
		if _, err := parser.Parse(lstm.Generate(rngB)); err == nil {
			validLSTM++
		}
	}
	if validGPT <= validLSTM {
		t.Errorf("long-context model should beat short-context: gpt2 %d vs lstm %d of %d",
			validGPT, validLSTM, n)
	}
	t.Logf("validity gpt2=%d/%d lstm=%d/%d", validGPT, n, validLSTM, n)
}

func TestGenerationDeterminism(t *testing.T) {
	g := trainDefault(t, ArchGPT2)
	a := g.Generate(rand.New(rand.NewSource(3)))
	b := g.Generate(rand.New(rand.NewSource(3)))
	if a != b {
		t.Error("generation must be deterministic under a fixed seed")
	}
}

// TestFrozenMatchesMapGenerator is the generator-level differential
// oracle: for both architectures, programs generated on the frozen
// token-ID path must be byte-identical — same text, same sampled-token
// count, same RNG consumption — to the map-backed path, across many
// consecutive generations from one shared RNG (so any drift in draw
// counts desynchronises the streams and fails loudly).
func TestFrozenMatchesMapGenerator(t *testing.T) {
	for _, arch := range []Arch{ArchGPT2, ArchLSTM} {
		frozen := Train(corpus.Programs(), corpus.Headers(), Config{Arch: arch})
		mapped := Train(corpus.Programs(), corpus.Headers(), Config{Arch: arch, DisableFrozenLM: true})
		if !frozen.FrozenLM() || mapped.FrozenLM() {
			t.Fatalf("%s: frozen knob not honoured", arch)
		}
		for _, seed := range []int64{1, 42, 2021} {
			rngF := rand.New(rand.NewSource(seed))
			rngM := rand.New(rand.NewSource(seed))
			for i := 0; i < 40; i++ {
				f, fn := frozen.GenerateFromN(corpus.Headers()[i%len(corpus.Headers())], rngF)
				m, mn := mapped.GenerateFromN(corpus.Headers()[i%len(corpus.Headers())], rngM)
				if f != m {
					t.Fatalf("%s seed %d gen %d: frozen and map programs differ:\n%q\nvs\n%q",
						arch, seed, i, f, m)
				}
				if fn != mn {
					t.Fatalf("%s seed %d gen %d: sampled-token counts differ: %d vs %d",
						arch, seed, i, fn, mn)
				}
			}
		}
	}
}

// TestFrozenHandlesUnknownHeaderTokens pins the out-of-vocabulary path:
// a header whose identifiers never occur in the corpus must round-trip
// its own text and still generate identically on both samplers.
func TestFrozenHandlesUnknownHeaderTokens(t *testing.T) {
	frozen := trainDefault(t, ArchGPT2)
	mapped := Train(corpus.Programs(), corpus.Headers(), Config{Arch: ArchGPT2, DisableFrozenLM: true})
	const header = "var zzUnknownZZ = qqNeverTrainedQQ + "
	for seed := int64(0); seed < 10; seed++ {
		f := frozen.GenerateFrom(header, rand.New(rand.NewSource(seed)))
		m := mapped.GenerateFrom(header, rand.New(rand.NewSource(seed)))
		if f != m {
			t.Fatalf("seed %d: unknown-header generations differ:\n%q\nvs\n%q", seed, f, m)
		}
		if !strings.HasPrefix(f, "var zzUnknownZZ = qqNeverTrainedQQ") {
			t.Fatalf("seed %d: header text lost through ID detokenization: %q", seed, f)
		}
	}
}

func TestGenerationTerminates(t *testing.T) {
	g := trainDefault(t, ArchGPT2)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		src := g.Generate(rng)
		if len(TokenizeCode(src)) > g.MaxTokens+64 {
			t.Errorf("generation exceeded the token cap: %d tokens", len(TokenizeCode(src)))
		}
	}
}
