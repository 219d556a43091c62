// Package reduce implements the paper's Section 3.5 test-case reduction as
// a hierarchical delta-debugging (ddmin) subsystem: traverse the AST,
// iteratively remove or simplify code structures, and keep each change that
// still reproduces the anomalous behaviour, until a fixpoint.
//
// Unlike a naive greedy reducer, the source is parsed exactly once; every
// candidate is produced by applying an in-place transform to the shared
// tree, printing it, and undoing the transform — so trying a candidate
// costs one print instead of a reparse, and an accepted candidate commits
// by re-applying its transform. Candidates are organised in three tiers:
//
//  1. ddmin chunked statement removal over every statement container
//     (program body, blocks, switch cases), halving the chunk size until
//     single statements;
//  2. structure simplification: if→then/else, loops→body, try→block,
//     label→body;
//  3. expression simplification: call arguments and declaration
//     initialisers become 0, multi-declarator vars split into single
//     declarators (unlocking tier-1 removal), else-branches drop.
//
// The driver evaluates independent candidates speculatively on a bounded
// worker pool (Options.Workers) and commits the first accepted candidate
// in candidate order, so the reduced output is byte-identical for every
// worker count — the same determinism contract as internal/exec's
// scheduler.
//
// Interaction with the resolve-once interpreter: the reducer's shared tree
// is parsed without scope resolution and is never executed — candidates
// are rendered to source and handed to the predicate, which compiles
// (parses and scope-resolves) each candidate afresh; the predicate
// (engines.Diverges over two prepared executors) shares that one compiled
// program between its two executions through an engines.ParseShare when
// their parser options coincide. The apply/undo transforms therefore never need to invalidate
// or re-resolve annotations: any annotation a transform would stale out
// lives on a tree the evaluator never sees.
package reduce

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"comfort/internal/js/ast"
	"comfort/internal/js/parser"
)

// Predicate reports whether a candidate source still triggers the same
// anomalous behaviour as the original test case. When Options.Workers > 1
// the predicate is called from multiple goroutines concurrently and must
// be safe for that (engine executions are; they share no mutable state).
type Predicate func(src string) bool

// Options parameterises a reduction.
type Options struct {
	// Workers bounds concurrent speculative predicate evaluations;
	// <=0 means GOMAXPROCS. The result is independent of the value.
	Workers int
	// Context cancels the reduction early; the best reduction committed so
	// far is returned. Nil means context.Background().
	Context context.Context
}

// Reduce shrinks src while pred keeps holding, using a single worker (the
// sequential driver). The result is the fixpoint of the three candidate
// tiers.
func Reduce(src string, pred Predicate) string {
	return Parallel(src, pred, Options{Workers: 1})
}

// Parallel shrinks src while pred keeps holding, evaluating independent
// candidates speculatively on a bounded worker pool. The reduced output is
// byte-identical for every worker count.
func Parallel(src string, pred Predicate, opts Options) string {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	prog, err := parser.Parse(src)
	if err != nil || !pred(src) {
		return src
	}
	r := &reducer{
		prog:    prog,
		pred:    pred,
		workers: opts.Workers,
		ctx:     ctx,
		current: src,
	}
	r.run()
	// A committed intermediate (e.g. a var split that never unlocked a
	// removal) can leave the fixpoint no smaller than the input; reduction
	// must never grow its witness, and the input satisfies pred by the
	// check above.
	if len(r.current) >= len(src) {
		return src
	}
	return r.current
}

// reducer holds one reduction's shared state: the single parsed tree (in
// the state of the last committed candidate) and its rendering.
type reducer struct {
	prog    *ast.Program
	pred    Predicate
	workers int
	ctx     context.Context
	// current is the last accepted candidate rendering (initially the
	// original source). Every committed candidate satisfied pred.
	current string
}

// run drives the tiers to a joint fixpoint: as long as any tier commits a
// candidate, all tiers run again (a structure simplification can expose
// new statement removals and vice versa).
func (r *reducer) run() {
	for r.ctx.Err() == nil {
		changed := r.ddminPass()
		changed = r.structurePass() || changed
		changed = r.exprPass() || changed
		if !changed {
			return
		}
	}
}

// ddminPass performs chunked statement removal over all containers: start
// at half the total statement count, retry at the same granularity after
// every accepted removal, and halve the chunk size when no chunk of the
// current size can go.
func (r *reducer) ddminPass() bool {
	any := false
	size := r.totalStmts() / 2
	if size < 1 {
		size = 1
	}
	for r.ctx.Err() == nil {
		if r.commitFirst(r.chunkCandidates(size)) {
			any = true
			if n := r.totalStmts(); size > n && n > 0 {
				size = n
			}
			continue
		}
		if size == 1 {
			return any
		}
		size /= 2
	}
	return any
}

// structurePass unwraps structured statements to their bodies.
func (r *reducer) structurePass() bool {
	any := false
	for r.ctx.Err() == nil && r.commitFirst(r.structureCandidates()) {
		any = true
	}
	return any
}

// exprPass simplifies expressions and splits declarations.
func (r *reducer) exprPass() bool {
	any := false
	for r.ctx.Err() == nil && r.commitFirst(r.exprCandidates()) {
		any = true
	}
	return any
}

// commitFirst renders the candidates in windows, speculatively evaluates
// each window on the worker pool, and commits the accepted candidate with
// the smallest index. It reports whether any candidate was committed.
func (r *reducer) commitFirst(cands []candidate) bool {
	window := r.workers * 4
	if window < 8 {
		window = 8
	}
	for base := 0; base < len(cands); base += window {
		if r.ctx.Err() != nil {
			return false
		}
		end := base + window
		if end > len(cands) {
			end = len(cands)
		}
		specs := make([]string, end-base)
		for i := range specs {
			specs[i] = r.render(cands[base+i])
		}
		if idx := r.firstAccepted(specs); idx >= 0 {
			cands[base+idx].apply()
			r.current = specs[idx]
			return true
		}
	}
	return false
}

// render produces a candidate's source text by applying its transform to
// the shared tree, printing, and undoing — the tree is back in its
// committed state when render returns.
func (r *reducer) render(c candidate) string {
	undo := c.apply()
	out := ast.Print(r.prog)
	undo()
	return out
}

// accept is the full candidate test: the rendering must differ from the
// committed state, reparse (reduction never trades a semantic divergence
// for a syntax error), and still satisfy the predicate.
func (r *reducer) accept(spec string) bool {
	if spec == "" || spec == r.current {
		return false
	}
	if _, err := parser.Parse(spec); err != nil {
		return false
	}
	return r.pred(spec)
}

// firstAccepted returns the smallest index whose spec is accepted, or -1.
// With workers > 1 the specs are evaluated speculatively: indices are
// claimed in order off a shared counter, acceptances lower a shared
// watermark, and a worker stops as soon as its next index cannot beat the
// watermark. The returned index is the global minimum accepted index —
// independent of scheduling — because an index is only ever skipped when a
// strictly smaller accepted index already exists.
func (r *reducer) firstAccepted(specs []string) int {
	if r.workers <= 1 {
		for i, s := range specs {
			if r.ctx.Err() != nil {
				return -1
			}
			if r.accept(s) {
				return i
			}
		}
		return -1
	}
	var best atomic.Int64
	best.Store(int64(len(specs)))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < r.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(specs)) || i >= best.Load() || r.ctx.Err() != nil {
					return
				}
				if r.accept(specs[i]) {
					for {
						b := best.Load()
						if i >= b || best.CompareAndSwap(b, i) {
							break
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	if b := best.Load(); b < int64(len(specs)) {
		return int(b)
	}
	return -1
}
