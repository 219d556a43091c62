package server

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// mkJobDir creates a job directory with spec+status for tests that drive
// store/lease primitives directly.
func mkJobDir(t *testing.T, store *Store, seq int, sp Spec) string {
	t.Helper()
	id := jobID(seq)
	st := Status{ID: id, Seq: seq, State: StateQueued, CasesTotal: sp.Cases}
	if err := store.CreateJob(st, sp); err != nil {
		t.Fatal(err)
	}
	return id
}

// TestLeaseCreateIsExclusive: the temp-file + hard-link create is the
// claim arbiter — exactly one of two racing creates can win, and the
// loser sees fs.ErrExist rather than a torn or replaced record.
func TestLeaseCreateIsExclusive(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	id := mkJobDir(t, store, 1, Spec{Fuzzer: "COMFORT", Cases: 8})
	l := &Lease{Format: LeaseFormatVersion, Instance: "alpha", Epoch: 1, DeadlineMS: 1}
	if err := store.CreateLease(id, l); err != nil {
		t.Fatalf("first create: %v", err)
	}
	l2 := &Lease{Format: LeaseFormatVersion, Instance: "beta", Epoch: 1, DeadlineMS: 2}
	if err := store.CreateLease(id, l2); !errors.Is(err, fs.ErrExist) {
		t.Fatalf("second create: err=%v, want fs.ErrExist", err)
	}
	got, err := store.ReadLease(id)
	if err != nil || got.Instance != "alpha" {
		t.Fatalf("lease after losing create: %+v (err %v), want alpha's intact", got, err)
	}
	// No temp droppings left behind by either attempt.
	entries, _ := os.ReadDir(filepath.Dir(store.LeasePath(id)))
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".lease-") {
			t.Fatalf("temp lease file left behind: %s", e.Name())
		}
	}
}

// TestLeaseFileHardening pins ReadLease's rejection surface: torn or
// garbage bytes and future format versions are per-job errors with
// actionable messages, absence is a clean nil, and a crash between a
// claim's temp-file write and its link (the writeAtomic crash window of
// the fenced path) leaves the job simply unclaimed.
func TestLeaseFileHardening(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sp := Spec{Fuzzer: "COMFORT", Cases: 8}
	torn := mkJobDir(t, store, 1, sp)
	future := mkJobDir(t, store, 2, sp)
	absent := mkJobDir(t, store, 3, sp)
	hollow := mkJobDir(t, store, 4, sp)

	if err := os.WriteFile(store.LeasePath(torn), []byte(`{"format":1,"inst`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.ReadLease(torn); err == nil || !strings.Contains(err.Error(), "torn or garbage") {
		t.Fatalf("torn lease: err=%v, want torn/garbage diagnosis", err)
	}

	if err := store.WriteLease(future, &Lease{Format: LeaseFormatVersion + 7,
		Instance: "from-the-future", Epoch: 12, DeadlineMS: 1 << 60}); err != nil {
		t.Fatal(err)
	}
	_, err = store.ReadLease(future)
	if err == nil || !strings.Contains(err.Error(), "refusing to contest") {
		t.Fatalf("future-format lease: err=%v, want clean refusal naming the format gap", err)
	}

	if l, err := store.ReadLease(absent); err != nil || l != nil {
		t.Fatalf("absent lease: %+v, %v, want nil, nil", l, err)
	}

	// Crash window: the claim's temp file was staged but never linked.
	// The lease is absent, the claim restartable, and a later create wins.
	if err := os.WriteFile(filepath.Join(filepath.Dir(store.LeasePath(hollow)), ".lease-crashed"),
		[]byte(`{"format":1,"instance":"ghost","epoch":1,"deadline_ms":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if l, err := store.ReadLease(hollow); err != nil || l != nil {
		t.Fatalf("lease with only a temp stage present: %+v, %v, want nil, nil", l, err)
	}
	if err := store.CreateLease(hollow, &Lease{Format: LeaseFormatVersion,
		Instance: "alpha", Epoch: 1, DeadlineMS: 1}); err != nil {
		t.Fatalf("create over a crashed temp stage: %v", err)
	}

	// A zero-value/malformed record (missing instance or epoch) is
	// rejected too — it can only come from a buggy or torn writer.
	if err := store.WriteLease(torn, &Lease{Format: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := store.ReadLease(torn); err == nil || !strings.Contains(err.Error(), "malformed") {
		t.Fatalf("malformed lease: err=%v, want malformed diagnosis", err)
	}
}

// TestGarbageLeaseQuarantinesOnlyThatJob: a job whose lease file is
// unreadable is quarantined with the lease error preserved, while its
// neighbours run to completion — one corrupt claim never takes the
// server down.
func TestGarbageLeaseQuarantinesOnlyThatJob(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sp := Spec{Fuzzer: "COMFORT", Cases: 8, Seed: 2, TestbedLimit: 2}
	bad := mkJobDir(t, store, 1, sp)
	good := mkJobDir(t, store, 2, sp)
	if err := os.WriteFile(store.LeasePath(bad), []byte("not json at all"), 0o644); err != nil {
		t.Fatal(err)
	}

	opt := testOptions(t)
	opt.Store = store
	s, err := NewSupervisor(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	waitIdle(t, s)

	badSt, _ := s.JobStatus(bad)
	if badSt.State != StateQuarantined {
		t.Fatalf("garbage-lease job: state %s (%q), want quarantined", badSt.State, badSt.LastError)
	}
	if !strings.Contains(badSt.LastError, "lease") {
		t.Fatalf("quarantine error does not name the lease: %q", badSt.LastError)
	}
	if badSt.Retries != 0 {
		t.Fatalf("garbage lease burned %d retries, want 0 (permanent)", badSt.Retries)
	}
	goodSt, _ := s.JobStatus(good)
	if goodSt.State != StateDone {
		t.Fatalf("neighbour job: state %s (%q), want done", goodSt.State, goodSt.LastError)
	}
}

// TestFencedWriteCrashWindows drives fencedWrite through the windows the
// protocol must close: an epoch bumped by a peer, an own deadline that
// expired while stalled, and a released-then-retaken lease. In every
// case the stale writer's bytes must not land.
func TestFencedWriteCrashWindows(t *testing.T) {
	clk := newFakeClock()
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSupervisor(twoInstanceOptions(store, clk, "alpha"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()

	sp := Spec{Fuzzer: "COMFORT", Cases: 8}
	probe := func(j *Job, path string) error {
		return s.fencedWrite(j, func() error { return writeAtomic(path, []byte("stale bytes")) })
	}

	t.Run("PeerBumpedEpoch", func(t *testing.T) {
		id := mkJobDir(t, store, 11, sp)
		j := &Job{ID: id, Seq: 11, Spec: sp, hub: newHub()}
		if err := s.claimJob(j); err != nil {
			t.Fatalf("claim: %v", err)
		}
		// A peer fenced us off while we stalled: epoch 2 on disk.
		if err := store.WriteLease(id, &Lease{Format: LeaseFormatVersion, Instance: "beta",
			Epoch: 2, DeadlineMS: clk.Now().Add(time.Hour).UnixMilli()}); err != nil {
			t.Fatal(err)
		}
		target := filepath.Join(filepath.Dir(store.LeasePath(id)), "probe.json")
		before := s.Fences()
		if err := probe(j, target); !errors.Is(err, ErrFenced) {
			t.Fatalf("write under bumped epoch: err=%v, want ErrFenced", err)
		}
		if _, err := os.Stat(target); !errors.Is(err, fs.ErrNotExist) {
			t.Fatal("stale bytes landed despite the bumped epoch")
		}
		if s.Fences() != before+1 {
			t.Fatalf("fence not counted: %d -> %d", before, s.Fences())
		}
		if !j.isFenced() {
			t.Fatal("job not marked fenced after a refused write")
		}
		// Once fenced, every further write is refused without re-reading.
		if err := probe(j, target); !errors.Is(err, ErrFenced) {
			t.Fatalf("write after fencing: err=%v, want ErrFenced", err)
		}
	})

	t.Run("OwnDeadlineExpired", func(t *testing.T) {
		id := mkJobDir(t, store, 12, sp)
		j := &Job{ID: id, Seq: 12, Spec: sp, hub: newHub()}
		if err := s.claimJob(j); err != nil {
			t.Fatalf("claim: %v", err)
		}
		// The disk lease is still ours, but our deadline passed while we
		// stalled: a peer may be mid-takeover, so the write must refuse
		// on the local deadline alone.
		clk.Advance(testLeaseTTL + time.Second)
		target := filepath.Join(filepath.Dir(store.LeasePath(id)), "probe.json")
		if err := probe(j, target); !errors.Is(err, ErrFenced) {
			t.Fatalf("write past own deadline: err=%v, want ErrFenced", err)
		}
		if _, err := os.Stat(target); !errors.Is(err, fs.ErrNotExist) {
			t.Fatal("stale bytes landed past the deadline")
		}
	})

	t.Run("ReleaseThenRetake", func(t *testing.T) {
		id := mkJobDir(t, store, 13, sp)
		j := &Job{ID: id, Seq: 13, Spec: sp, hub: newHub()}
		if err := s.claimJob(j); err != nil {
			t.Fatalf("claim: %v", err)
		}
		s.releaseLease(j)
		l, err := store.ReadLease(id)
		if err != nil || !l.Released || l.Epoch != 1 {
			t.Fatalf("after release: %+v (err %v), want released epoch 1", l, err)
		}
		// A released lease is claimable immediately; the taker bumps the
		// epoch so the fencing history stays monotone across the handoff.
		j2 := &Job{ID: id, Seq: 13, Spec: sp, hub: newHub()}
		if err := s.claimJob(j2); err != nil {
			t.Fatalf("re-claim released lease: %v", err)
		}
		if l, _ := store.ReadLease(id); l.Epoch != 2 || l.Released {
			t.Fatalf("after re-claim: %+v, want fresh epoch 2", l)
		}
		// The old holder's handle is dead even though the instance names
		// match — the epoch is what fences, not the identity.
		target := filepath.Join(filepath.Dir(store.LeasePath(id)), "probe.json")
		if err := probe(j, target); !errors.Is(err, ErrFenced) {
			t.Fatalf("write under released/retaken lease: err=%v, want ErrFenced", err)
		}
	})
}

// TestRetryDelayGoldenSchedule pins the exact backoff schedule to golden
// values: the delays are a pure function of (seq, attempt), so a
// restarted instance — or a peer taking the job over — computes the
// identical schedule, and two instances can never drift into
// synchronized retry storms. If this test fails, the on-disk meaning of
// "retry attempt N of job seq S" changed for every deployed store.
func TestRetryDelayGoldenSchedule(t *testing.T) {
	golden := []struct {
		seq, attempt int
		want         time.Duration
	}{
		{seq: 1, attempt: 1, want: 1066428519 * time.Nanosecond},
		{seq: 1, attempt: 2, want: 2282890590 * time.Nanosecond},
		{seq: 1, attempt: 3, want: 4821780235 * time.Nanosecond},
		{seq: 1, attempt: 4, want: 8126968761 * time.Nanosecond},
		{seq: 2, attempt: 1, want: 1320860226 * time.Nanosecond},
		{seq: 2, attempt: 2, want: 2141275951 * time.Nanosecond},
		{seq: 2, attempt: 3, want: 4550939236 * time.Nanosecond},
		{seq: 2, attempt: 4, want: 8693156649 * time.Nanosecond},
		{seq: 7, attempt: 1, want: 1594955804 * time.Nanosecond},
		{seq: 7, attempt: 2, want: 2815609346 * time.Nanosecond},
		{seq: 7, attempt: 3, want: 4301472203 * time.Nanosecond},
		{seq: 7, attempt: 4, want: 8500723674 * time.Nanosecond},
	}
	for _, g := range golden {
		if got := retryDelay(time.Second, time.Minute, g.seq, g.attempt); got != g.want {
			t.Errorf("retryDelay(1s, 1m, seq=%d, attempt=%d) = %v, want %v",
				g.seq, g.attempt, got, g.want)
		}
	}
	// Distinct jobs must jitter apart on the same attempt ordinal: equal
	// delays would mean synchronized storms.
	for attempt := 1; attempt <= 4; attempt++ {
		a := retryDelay(time.Second, time.Minute, 1, attempt)
		b := retryDelay(time.Second, time.Minute, 2, attempt)
		if a == b {
			t.Errorf("attempt %d: seq 1 and 2 share delay %v — no de-synchronisation", attempt, a)
		}
	}
}

// TestPriorityDispatchOrder pins the scheduler's dispatch schedule:
// higher priority first, submission order within a priority — asserted
// via the run-attempt order recorded while a blocker holds the single
// active slot.
func TestPriorityDispatchOrder(t *testing.T) {
	opt := testOptions(t)
	opt.MaxActive = 1
	s, err := NewSupervisor(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()

	var mu sync.Mutex
	var runs []string
	s.runHook = func(j *Job) error {
		mu.Lock()
		runs = append(runs, j.ID)
		mu.Unlock()
		return nil
	}

	blocker, err := s.Submit(Spec{Fuzzer: "COMFORT", Cases: 100000, Seed: 2, TestbedLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		st, _ := s.JobStatus(blocker.ID)
		if st.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("blocker stuck in %s", st.State)
		}
		time.Sleep(time.Millisecond)
	}

	// Mixed priorities land in the queue while the slot is occupied.
	small := Spec{Fuzzer: "COMFORT", Cases: 4, Seed: 2, TestbedLimit: 2}
	submit := func(prio int) string {
		t.Helper()
		sp := small
		sp.Priority = prio
		st, err := s.Submit(sp)
		if err != nil {
			t.Fatalf("submit priority %d: %v", prio, err)
		}
		return st.ID
	}
	j1 := submit(0)
	j2 := submit(10)
	j3 := submit(-5)
	j4 := submit(10)
	j5 := submit(0)

	if err := s.CancelJob(blocker.ID); err != nil {
		t.Fatal(err)
	}
	waitIdle(t, s)

	mu.Lock()
	got := append([]string(nil), runs...)
	mu.Unlock()
	wantOrder := []string{blocker.ID, j2, j4, j1, j5, j3}
	if len(got) != len(wantOrder) {
		t.Fatalf("recorded %d run attempts %v, want %d", len(got), got, len(wantOrder))
	}
	for i := range wantOrder {
		if got[i] != wantOrder[i] {
			t.Fatalf("dispatch order %v, want %v (priority desc, then submission order)", got, wantOrder)
		}
	}

	// The priority knob is validated at the API edge.
	for _, bad := range []int{101, -101} {
		sp := small
		sp.Priority = bad
		if _, err := s.Submit(sp); err == nil || !strings.Contains(err.Error(), "priority") {
			t.Errorf("priority %d admitted: err=%v, want validation error", bad, err)
		}
	}
}

// TestScanSkipsAdmittedJob: between dispatch admitting a job and its run
// claiming the lease, the job holds no lease; the maintenance scan must
// still not enqueue it again, or a second runJob executes the same
// campaign concurrently on this instance.
func TestScanSkipsAdmittedJob(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSupervisor(twoInstanceOptions(store, newFakeClock(), "alpha"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()

	sp := Spec{Fuzzer: "COMFORT", Cases: 4, Seed: 2, TestbedLimit: 2}
	st := Status{ID: jobID(1), Seq: 1, State: StateQueued, CasesTotal: sp.Cases}
	if err := store.CreateJob(st, sp); err != nil {
		t.Fatal(err)
	}
	// The state dispatch leaves behind before runJob's claim.
	j := &Job{ID: st.ID, Seq: st.Seq, Spec: sp, hub: newHub(), status: st, inFlight: 1}
	s.mu.Lock()
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.active = s.opt.MaxActive // park dispatch so the queue stays observable
	s.mu.Unlock()

	s.scanStore()
	s.mu.Lock()
	requeued := s.queued[j.ID]
	s.dequeueLocked(j.ID)
	s.active = 0
	s.mu.Unlock()
	if requeued {
		t.Fatal("scan re-enqueued a job already admitted to run")
	}
}
