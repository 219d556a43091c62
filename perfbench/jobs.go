package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"comfort/internal/campaign"
	"comfort/internal/engines"
	"comfort/internal/fuzzers"
	"comfort/internal/server"
)

// jobs-small drives comfortd in process — httptest over server.Handler —
// as a closed loop of nproc clients, each submitting a small COMFORT job,
// following its event stream to the end, and submitting the next.
var jobsSmall = &workload{
	name:   "jobs-small",
	setup:  func(o *options) (any, error) { return setupJobs(o) },
	run:    func(o *options, st any, setupS float64) (*report, error) { return st.(*jobs).run(o, setupS) },
	traced: func(o *options, st any) (*report, error) { return st.(*jobs).traced(o) },
	close:  func(st any) { st.(*jobs).close() },
}

// jobs is the state of the jobs-small workload.
type jobs struct {
	dir     string
	sup     *server.Supervisor
	srv     *httptest.Server
	http    *http.Client
	clients int
	specs   []server.Spec
	want    []digest
}

// setupJobs starts the service: job store, supervisor and HTTP server.
func setupJobs(o *options) (*jobs, error) {
	dir, err := os.MkdirTemp(o.workDir, "jobs-store-")
	if err != nil {
		return nil, err
	}
	store, err := server.OpenStore(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	n := runtime.NumCPU()
	sup, err := server.NewSupervisor(server.Options{
		Store: store, PoolWorkers: n, MaxActive: n, ProgressEvery: 4, Clock: time.Now,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	// A job takes well under a second; the timeout turns a hung request
	// into a failed job instead of a benchmark that never exits.
	client := &http.Client{Timeout: time.Minute}
	j := &jobs{dir: dir, sup: sup, srv: httptest.NewServer(server.Handler(sup)), http: client, clients: n}
	cases, nSpecs := 16, 8
	if o.tiny {
		cases, nSpecs = 4, 2
	}
	for k := 0; k < nSpecs; k++ {
		j.specs = append(j.specs, server.Spec{
			Fuzzer: "COMFORT", Cases: cases, Seed: deriveSeed(o.seed, k),
			TestbedLimit: 8, CheckpointEvery: 4, Workers: 1,
		})
	}
	return j, nil
}

func (j *jobs) close() {
	j.srv.Close()
	j.sup.Shutdown()
	os.RemoveAll(j.dir)
}

// expected computes each spec's digest from an in-process campaign.Run of
// the same spec.
func (j *jobs) expected() {
	if j.want != nil {
		return
	}
	for _, sp := range j.specs {
		res := campaign.Run(campaign.Config{
			Fuzzer: fuzzers.NewComfort(), Testbeds: engines.Testbeds()[:sp.TestbedLimit],
			Cases: sp.Cases, Seed: sp.Seed, Workers: sp.Workers,
		})
		j.want = append(j.want, resultDigest(res))
	}
}

// jobRecord is one job as a client saw it. Times are from the moment the
// POST was sent; a zero time means the event was not seen.
type jobRecord struct {
	ok                                 bool
	submit, running, firstSample, done time.Duration
	fetched                            time.Duration
	samples, executed                  int
	start                              time.Time
	// last is the job's final progress sample (its largest Done).
	last sample
}

// sample is the part of an event-stream sample the clients read: the
// job's state and its campaign.Progress counters.
type sample struct {
	State string `json:"state"`
	Done  int
	counters
}

// oneJob submits spec, follows its stream until it closes and checks the
// final status and accounting against want.
func (j *jobs) oneJob(o *options, sp server.Spec, want digest) jobRecord {
	rec := jobRecord{start: time.Now()}
	body, _ := json.Marshal(sp)
	resp, err := j.http.Post(j.srv.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return rec
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.submit = time.Since(rec.start)
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return rec
	}
	var st server.Status
	if json.Unmarshal(data, &st) != nil {
		return rec
	}
	stream, err := j.http.Get(j.srv.URL + "/jobs/" + st.ID + "/stream")
	if err != nil {
		return rec
	}
	sc := bufio.NewScanner(stream.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var s sample
		if json.Unmarshal([]byte(line), &s) != nil {
			continue
		}
		now := time.Since(rec.start)
		rec.samples++
		if s.State == server.StateRunning && rec.running == 0 {
			rec.running = now
		}
		if s.Done > 0 && rec.firstSample == 0 {
			rec.firstSample = now
		}
		if s.Done > rec.last.Done {
			rec.last = s
		}
	}
	stream.Body.Close()
	rec.done = time.Since(rec.start)
	if sc.Err() != nil || stream.StatusCode != http.StatusOK {
		return rec
	}
	if rec.running == 0 {
		rec.running = rec.firstSample
	}
	got, err := j.fetch(st.ID)
	rec.fetched = time.Since(rec.start)
	if err != nil {
		return rec
	}
	rec.executed = got.Accounting.Executed
	rec.ok = got.Status.State == server.StateDone && got.Status.CasesDone == sp.Cases &&
		got.Accounting.CasesRun == sp.Cases && got.digest() == o.expect(want)
	return rec
}

// jobView is GET /jobs/{id}.
type jobView struct {
	Status     server.Status     `json:"status"`
	Accounting server.Accounting `json:"accounting"`
}

func (v *jobView) digest() digest {
	a := &v.Accounting
	ids := func(fs []server.FindingRecord) []string {
		var out []string
		for _, f := range fs {
			out = append(out, f.DefectID)
		}
		return out
	}
	return makeDigest(a.Fuzzer, ids(a.Found), ids(a.Suppressed), a.Verdicts, a.CasesRun, a.Executed)
}

func (j *jobs) fetch(id string) (*jobView, error) {
	resp, err := j.http.Get(j.srv.URL + "/jobs/" + id)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /jobs/%s: %s", id, resp.Status)
	}
	var v jobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return nil, err
	}
	return &v, nil
}

// jobLoop is one closed-loop measurement.
type jobLoop struct {
	recs   []jobRecord
	wall   time.Duration
	allocs uint64
	cpu    time.Duration
	peakMB float64
}

// loop runs the closed loop: clients submit until seconds have passed,
// then finish their job in flight.
func (j *jobs) loop(o *options, seconds float64, tr *tracer) *jobLoop {
	var (
		mu   sync.Mutex
		jl   = &jobLoop{}
		next atomic.Int64
		wg   sync.WaitGroup
	)
	heap := startHeapWatch()
	m0, cpu0 := readMem(), cpuTime()
	t0 := time.Now()
	deadline := t0.Add(time.Duration(seconds * float64(time.Second)))
	for c := 0; c < j.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				k := int(next.Add(1)-1) % len(j.specs)
				rec := j.oneJob(o, j.specs[k], j.want[k])
				if tr != nil {
					traceJob(tr, rec)
				}
				mu.Lock()
				jl.recs = append(jl.recs, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	jl.wall = time.Since(t0)
	jl.allocs = readMem().allocs - m0.allocs
	jl.cpu = cpuTime() - cpu0
	jl.peakMB = heap.done()
	return jl
}

// traceJob records one job's spans: submit, queue wait, start (running
// → first progress sample), run (→ stream closed) and result fetch.
func traceJob(tr *tracer, r jobRecord) {
	at := func(d time.Duration) int64 { return int64(r.start.Sub(tr.t0) + d) }
	id := tr.add("job", 0, 0, at(0), at(r.fetched))
	tr.add("server.submit", id, id, at(0), at(r.submit))
	if r.running > 0 {
		tr.add("server.queue_wait", id, id, at(r.submit), at(r.running))
		if r.firstSample > 0 {
			tr.add("server.start", id, id, at(r.running), at(r.firstSample))
			tr.add("server.run", id, id, at(r.firstSample), at(r.done))
		}
	}
	tr.add("server.result_fetch", id, id, at(r.done), at(r.fetched))
}

// failures counts the loop's jobs and the failed ones among them.
func (jl *jobLoop) failures() (attempted, failed int) {
	for _, r := range jl.recs {
		if !r.ok {
			failed++
		}
	}
	return len(jl.recs), failed
}

// summary condenses a loop into the end-to-end metrics.
func (jl *jobLoop) summary(o *options) map[string]metric {
	var lat, first, submit []float64
	executed := 0
	for _, r := range jl.recs {
		if !r.ok {
			continue
		}
		executed += r.executed
		lat = append(lat, ms(r.done))
		first = append(first, ms(r.firstSample))
		submit = append(submit, ms(r.submit))
	}
	latencyLine(o.out, "job_latency_ms", lat)
	latencyLine(o.out, "first_sample_ms", first)
	latencyLine(o.out, "submit_ms", submit)
	wall := jl.wall.Seconds()
	return map[string]metric{
		"execs_per_s":         {float64(executed) / wall, "1/s"},
		"allocs_per_exec":     {float64(jl.allocs) / float64(max(executed, 1)), "count"},
		"cpu_us_per_exec":     {perCall(jl.cpu, executed, time.Microsecond), "us"},
		"peak_heap_mb":        {jl.peakMB, "MB"},
		"jobs_per_s":          {float64(len(lat)) / wall, "1/s"},
		"job_latency_p50_ms":  {quantile(lat, 0.5), "ms"},
		"job_latency_p90_ms":  {quantile(lat, 0.9), "ms"},
		"first_sample_p50_ms": {quantile(first, 0.5), "ms"},
	}
}

func (j *jobs) run(o *options, setupS float64) (*report, error) {
	j.expected()
	jl := j.loop(o, o.seconds, nil)
	m := jl.summary(o)
	attempted, failed := jl.failures()
	m["setup_s"] = metric{setupS, "s"}
	return &report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}
