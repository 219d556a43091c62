package engines

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"testing"
)

// executorGolden pins the observable behaviour of the single-defect
// executor, the reference executor, the divergence predicate and
// attribution over the whole catalog. It was recorded before the
// single-defect executor was folded into PreparedTestbed; any change to
// that path's semantics (pre-parse gate, parse sharing, hook chaining,
// config deltas) changes it. Every Mode has the same semantics, so both
// modes below hash to the same value.
const executorGolden = "b4ab4c4ba8cdabd07b673ce5924b68a6930b2d0b3bdd309115f9b3a980baa5b5"

var executorGoldenModes = []struct {
	name string
	mode Mode
}{
	{"production", Mode{}},
	{"tree-dict", Mode{DisableCompile: true, DisableShapes: true}},
}

// TestExecutorGolden hashes, for every catalog defect in catalog order and
// with the witness's own strictness: the witness's semantics under the
// one-defect executor and under the reference, the reduction predicate's
// verdict on the witness, and the defect IDs Attribute blames on the
// defect's attribution-version testbed.
func TestExecutorGolden(t *testing.T) {
	for _, g := range executorGoldenModes {
		g := g
		t.Run(g.name, func(t *testing.T) {
			opts := RunOptions{Fuel: 500000, Seed: 42, Mode: g.mode}
			h := sha256.New()
			for _, d := range Catalog() {
				hashDefect(t, h, d, opts)
			}
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != executorGolden {
				t.Errorf("executor golden changed: got %s want %s", got, executorGolden)
			}
		})
	}
}

func hashDefect(t *testing.T, h hash.Hash, d *Defect, opts RunOptions) {
	strict := d.WitnessStrict
	v, ok := FindVersion(d.Engine, d.AttrVersion)
	if !ok {
		t.Fatalf("%s: attribution version not found", d.ID)
	}
	var ids []string
	for _, a := range Attribute(d.Witness, Testbed{Version: v, Strict: strict}, opts) {
		ids = append(ids, a.ID)
	}
	fmt.Fprintf(h, "%s\n%+v\n%+v\n%v\n%v\n", d.ID,
		NewDefectRunner(d, strict).Run(d.Witness, opts).Semantics(),
		NewDefectRunner(nil, strict).Run(d.Witness, opts).Semantics(),
		DivergesRunners(NewDefectRunner(d, strict), NewDefectRunner(nil, strict), opts)(d.Witness),
		ids)
}
