package engines

import "testing"

// TestParseShareOnePerFingerprint: executors with equal parser-option
// fingerprints get the very same program from a share, unequal ones get
// their own, and the share's fixed store holds every fingerprint of the
// testbed inventory, so difftest.Execute parses each one once.
func TestParseShareOnePerFingerprint(t *testing.T) {
	src := `print(1);`
	share := NewParseShare(Mode{})
	ref, _ := share.Parse(ReferenceTestbed(false).Prepare(), src)
	again, _ := share.Parse(ReferenceTestbed(false).Prepare(), src)
	if ref == nil || ref != again {
		t.Fatalf("equal fingerprints not shared: %p vs %p", ref, again)
	}
	strict, _ := share.Parse(ReferenceTestbed(true).Prepare(), src)
	if strict == ref {
		t.Fatal("strict and normal parses shared despite different fingerprints")
	}

	fps := map[uint64]bool{}
	for _, tb := range Testbeds() {
		fps[tb.Prepare().ParseFingerprint()] = true
	}
	if len(fps) > len(share.entries) {
		t.Errorf("%d parser-option fingerprints across the testbeds, share holds %d",
			len(fps), len(share.entries))
	}
}
