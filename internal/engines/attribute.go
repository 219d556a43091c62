package engines

// NewDefectRunner prepares an executor with exactly one defect installed —
// the ground-truth attribution primitive behind Attribute and the
// campaign's reduction predicate. A nil defect gives the defect-free
// reference, ReferenceTestbed(strict).Prepare(). The executor is resolved
// once, so a predicate that executes hundreds of candidates pays the setup
// once; it is not memoised, and Run is safe for concurrent use.
func NewDefectRunner(d *Defect, strict bool) *PreparedTestbed {
	if d == nil {
		return ReferenceTestbed(strict).Prepare()
	}
	return prepare(strict, []*Defect{d})
}

// Diverges builds a reduction predicate over two prepared executors: it
// reports whether src behaves differently on a and b under opts. The two
// cells share one ParseShare, so when their parser options coincide (the
// common case — a version or defect against the reference) a candidate is
// parsed once, not twice. The predicate is safe for concurrent calls, as
// reduce.Parallel requires.
func Diverges(a, b *PreparedTestbed, opts RunOptions) func(src string) bool {
	return func(src string) bool {
		share := NewParseShare(opts.Mode)
		return RunCell(a, src, share.Parse, opts).Key() != RunCell(b, src, share.Parse, opts).Key()
	}
}

// DivergesRunners is Diverges under its single-defect name. It stays
// because the benchmark harness (perfbench) calls it.
func DivergesRunners(a, b *PreparedTestbed, opts RunOptions) func(src string) bool {
	return Diverges(a, b, opts)
}

// Attribute identifies which seeded defects of the testbed's version are
// responsible for a divergence observed on src: each active defect is
// re-run in isolation against the defect-free reference. All cells share
// one ParseShare, so the witness is parsed once per distinct parser-option
// fingerprint instead of once per candidate; only the handful of defects
// with parser interceptors pay their own parse. Each candidate still runs
// with exactly its own config, hook and pre-parse gate.
func Attribute(src string, tb Testbed, opts RunOptions) []*Defect {
	share := NewParseShare(opts.Mode)
	ref := RunCell(NewDefectRunner(nil, tb.Strict), src, share.Parse, opts).Key()
	var out []*Defect
	for _, d := range tb.Prepare().ActiveDefects() {
		if RunCell(NewDefectRunner(d, tb.Strict), src, share.Parse, opts).Key() != ref {
			out = append(out, d)
		}
	}
	return out
}
