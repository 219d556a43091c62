package main

import (
	"fmt"
	"io"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"comfort/internal/campaign"
)

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// deriveSeed maps (seed, i) to an independent 64-bit seed (splitmix64),
// so a workload's campaigns and jobs draw distinct, reproducible seeds.
func deriveSeed(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) & (1<<62 - 1))
}

// Runtime counters read through runtime/metrics, which unlike
// runtime.ReadMemStats does not stop the world.
var memSampleNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/live:bytes",
}

// memCounters is one reading of the process's allocation counters.
type memCounters struct {
	allocs, allocBytes, gcCycles, liveBytes uint64
}

func readMem() memCounters {
	s := make([]metrics.Sample, len(memSampleNames))
	for i, n := range memSampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return memCounters{
		allocs: s[0].Value.Uint64(), allocBytes: s[1].Value.Uint64(),
		gcCycles: s[2].Value.Uint64(), liveBytes: s[3].Value.Uint64(),
	}
}

// heapWatch reads the live heap after every GC of a run.
type heapWatch struct {
	stop  chan struct{}
	wg    sync.WaitGroup
	mu    sync.Mutex
	cycle uint64
	lives []float64
}

func startHeapWatch() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), cycle: readMem().gcCycles}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.note()
			}
		}
	}()
	return h
}

func (h *heapWatch) note() {
	m := readMem()
	h.mu.Lock()
	if m.gcCycles != h.cycle {
		h.cycle = m.gcCycles
		h.lives = append(h.lives, float64(m.liveBytes))
	}
	h.mu.Unlock()
}

// done stops the watch and returns the run's high-water mark of live heap
// in MB: the 95th percentile of the per-GC readings, so that no single GC
// that happened to land on a transient peak decides it.
func (h *heapWatch) done() float64 {
	close(h.stop)
	h.wg.Wait()
	h.note()
	return quantile(h.lives, 0.95) / (1 << 20)
}

// cpuTime is the process's user plus system CPU time. Unlike wall time it
// excludes the time a shared host's hypervisor gives the CPUs to others.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// digest is the canonical findings summary the output checks compare:
// sorted found and suppressed defect IDs, verdict counts, cases run and
// delivered executions.
type digest string

func makeDigest(fuzzer string, found, suppressed []string, verdicts map[string]int, cases, executed int) digest {
	sort.Strings(found)
	sort.Strings(suppressed)
	vs := make([]string, 0, len(verdicts))
	for v, n := range verdicts {
		vs = append(vs, fmt.Sprintf("%s=%d", v, n))
	}
	sort.Strings(vs)
	return digest(fmt.Sprintf("%s|found=%s|suppressed=%s|verdicts=%s|cases=%d|executed=%d",
		fuzzer, strings.Join(found, ","), strings.Join(suppressed, ","),
		strings.Join(vs, ","), cases, executed))
}

func resultDigest(res *campaign.Result) digest {
	var found, suppressed []string
	for id := range res.Found {
		found = append(found, id)
	}
	for id := range res.SuppressedNondet {
		suppressed = append(suppressed, id)
	}
	verdicts := map[string]int{}
	for v, n := range res.Verdicts {
		verdicts[v.String()] = n
	}
	return makeDigest(res.FuzzerName, found, suppressed, verdicts, res.CasesRun, res.Executed)
}

// counters are a campaign's scheduler and checkpoint counters, as
// campaign.Result and the progress samples of a job's event stream carry
// them.
type counters struct {
	CacheHits, CacheMisses int64
	Compiled, Fallback     int64
	EarlyErrorSkips        int64
	Panics, WallTimeouts   int64
	Checkpoints            int64
}

func resultCounters(r *campaign.Result) counters {
	return counters{
		CacheHits: r.CacheHits, CacheMisses: r.CacheMisses,
		Compiled: r.Compiled, Fallback: r.Fallback, EarlyErrorSkips: r.EarlyErrorSkips,
		Panics: r.Panics, WallTimeouts: r.WallTimeouts, Checkpoints: r.Checkpoints,
	}
}

func (c *counters) add(o counters) {
	c.CacheHits += o.CacheHits
	c.CacheMisses += o.CacheMisses
	c.Compiled += o.Compiled
	c.Fallback += o.Fallback
	c.EarlyErrorSkips += o.EarlyErrorSkips
	c.Panics += o.Panics
	c.WallTimeouts += o.WallTimeouts
	c.Checkpoints += o.Checkpoints
}

// put adds the exec-layer ratios and the fault and checkpoint counts.
func (c *counters) put(m map[string]metric) {
	runs := c.Compiled + c.Fallback + c.EarlyErrorSkips
	m["exec.cache_hit_ratio"] = metric{ratio(int(c.CacheHits), int(c.CacheHits+c.CacheMisses)), "ratio"}
	m["exec.compiled_ratio"] = metric{ratio(int(c.Compiled), int(c.Compiled+c.Fallback)), "ratio"}
	m["exec.early_skip_ratio"] = metric{ratio(int(c.EarlyErrorSkips), int(runs)), "ratio"}
	m["exec.panics"] = metric{float64(c.Panics), "count"}
	m["exec.wall_timeouts"] = metric{float64(c.WallTimeouts), "count"}
	m["campaign.ckpt_writes"] = metric{float64(c.Checkpoints), "count"}
}

// expect returns the digest a check compares against: want itself, or a
// deliberately wrong one under --corrupt-expected.
func (o *options) expect(want digest) digest {
	if o.corruptExpected {
		return want + "|corrupted"
	}
	return want
}

// latencyLine prints a latency distribution with its sample count, ahead
// of the result line.
func latencyLine(w io.Writer, name string, xs []float64) {
	fmt.Fprintf(w, "%s: n=%d p50=%.3f p90=%.3f max=%.3f\n", name, len(xs),
		quantile(xs, 0.5), quantile(xs, 0.9), quantile(xs, 1))
}
