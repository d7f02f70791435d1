package core

// Tests for the telemetry hard rule: a session with telemetry attached
// (shards, sinks, trace) is bit-identical — trajectory, corpus, image
// hashes, faults — to the same session without it, and the event trace
// itself is byte-deterministic per (Seed, Workers).

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"pmfuzz/internal/obs"
)

// sessionDigest reduces a session result to a comparable fingerprint
// covering the trajectory, the fault list, and every queue entry's
// identity including its image hash.
func sessionDigest(res *Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "execs=%d simns=%d pmpaths=%d\n", res.Execs, res.SimNS, res.PMPaths)
	for _, s := range res.Series {
		fmt.Fprintf(h, "s %d %d %d %d %d %d\n", s.SimNS, s.Execs, s.PMPaths, s.BranchCov, s.QueueLen, s.Images)
	}
	for _, f := range res.Faults {
		fmt.Fprintf(h, "f %q %d %d\n", f.Msg, f.Execs, f.SimNS)
	}
	for _, e := range res.Queue.Entries() {
		fmt.Fprintf(h, "e %d %d %d %x %v %v %v %d\n",
			e.ID, e.ParentID, e.Favored, e.ImageID, e.HasImage, e.IsCrashImage, e.NewPM, e.FoundSimNS)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// runWithTelemetry runs one btree session, optionally with a full
// telemetry session attached (all sinks live, status to io.Discard),
// and returns the session digest.
func runWithTelemetry(t *testing.T, workers int, attach bool) string {
	t.Helper()
	cfg, err := DefaultConfig("btree", PMFuzzAll, 40_000_000, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = workers
	f, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if attach {
		dir := t.TempDir()
		sess, err := obs.NewSession(obs.Config{
			Workload: "btree", FuzzConfig: "pmfuzz", Workers: workers,
			Seed: 42, BudgetNS: cfg.BudgetNS,
			StatusEvery: 5_000_000, StatusW: io.Discard, // 5ms ticker, discarded
			OutDir:    filepath.Join(dir, "out"),
			TracePath: filepath.Join(dir, "trace.jsonl"),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Start(); err != nil {
			t.Fatal(err)
		}
		f.SetTelemetry(sess)
		defer func() {
			if err := sess.Close(); err != nil {
				t.Fatal(err)
			}
		}()
	}
	return sessionDigest(f.Run())
}

func TestTelemetryReadOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("full telemetry equivalence in -short mode")
	}
	for _, workers := range []int{1, 2} {
		base := runWithTelemetry(t, workers, false)
		with := runWithTelemetry(t, workers, true)
		if base != with {
			t.Errorf("workers=%d: session digest changed with telemetry attached", workers)
		}
	}
}

func TestTelemetryRegistryMatchesResult(t *testing.T) {
	cfg, err := DefaultConfig("btree", PMFuzzAll, 20_000_000, 42)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := obs.NewSession(obs.Config{Workload: "btree", FuzzConfig: "pmfuzz", Workers: 1, Seed: 42, BudgetNS: cfg.BudgetNS})
	if err != nil {
		t.Fatal(err)
	}
	f.SetTelemetry(sess)
	res := f.Run()
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	snap := sess.M.Snapshot()
	if snap.Execs != int64(res.Execs) {
		t.Errorf("registry execs = %d, result execs = %d", snap.Execs, res.Execs)
	}
	if snap.SimNS != res.SimNS {
		t.Errorf("registry sim_ns = %d, result simns = %d", snap.SimNS, res.SimNS)
	}
	if snap.PMPaths != int64(res.PMPaths) {
		t.Errorf("registry pm_paths = %d, result pmpaths = %d", snap.PMPaths, res.PMPaths)
	}
	if snap.QueueLen != int64(res.Queue.Len()) {
		t.Errorf("registry queue_len = %d, queue len = %d", snap.QueueLen, res.Queue.Len())
	}
	if snap.Images != int64(res.Store.Len()) {
		t.Errorf("registry images = %d, store len = %d", snap.Images, res.Store.Len())
	}
	if snap.Stages[obs.StageExec].Ops != snap.Execs {
		t.Errorf("exec stage ops = %d, execs = %d", snap.Stages[obs.StageExec].Ops, snap.Execs)
	}
	if snap.Admits == 0 || snap.Harvests == 0 {
		t.Errorf("expected admissions and harvests, got %d/%d", snap.Admits, snap.Harvests)
	}
	var histTotal int64
	for _, b := range snap.ExecHist {
		histTotal += b.Count
	}
	if histTotal != snap.Execs {
		t.Errorf("exec histogram total = %d, execs = %d", histTotal, snap.Execs)
	}
}

// runTraced runs one session with only the trace sink and returns the
// trace bytes.
func runTraced(t *testing.T, workers int) []byte {
	t.Helper()
	cfg, err := DefaultConfig("btree", PMFuzzAll, 20_000_000, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = workers
	f, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	sess, err := obs.NewSession(obs.Config{
		Workload: "btree", FuzzConfig: "pmfuzz", Workers: workers,
		Seed: 42, BudgetNS: cfg.BudgetNS, TracePath: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.SetTelemetry(sess)
	f.Run()
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestTraceDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("trace determinism replay in -short mode")
	}
	for _, workers := range []int{1, 2} {
		a := runTraced(t, workers)
		b := runTraced(t, workers)
		if !bytes.Equal(a, b) {
			t.Errorf("workers=%d: trace not byte-deterministic across replays", workers)
		}
		if len(a) == 0 {
			t.Errorf("workers=%d: empty trace", workers)
		}
	}
	// Events carry sim time only: any wall-clock stamp would break the
	// replay equality above, so this doubles as the no-wall-clock check.
}

// runTracedTwoStage runs one two-stage session with only the trace sink
// and returns the trace bytes.
func runTracedTwoStage(t *testing.T, stage2Workers int) []byte {
	t.Helper()
	cfg, err := DefaultConfig("btree", PMFuzzAll, 30_000_000, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 1
	cfg.Stage2Workers = stage2Workers
	cfg.Stage2BudgetNS = 8_000_000
	cfg.Stage2MaxCampaigns = 2
	f, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	sess, err := obs.NewSession(obs.Config{
		Workload: "btree", FuzzConfig: "pmfuzz", Workers: 1,
		Seed: 42, BudgetNS: cfg.BudgetNS, TracePath: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.SetTelemetry(sess)
	f.Run()
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestTwoStageTraceEvents(t *testing.T) {
	tr := runTracedTwoStage(t, 1)
	var enters, exits, stage2Events int
	for _, line := range bytes.Split(tr, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		switch {
		case bytes.Contains(line, []byte(`"t":"stage_enter"`)):
			enters++
		case bytes.Contains(line, []byte(`"t":"stage_exit"`)):
			exits++
		}
		if bytes.Contains(line, []byte(`"stage":2`)) {
			stage2Events++
		}
	}
	if enters < 2 || enters != exits {
		t.Fatalf("stage bracketing broken: %d stage_enter, %d stage_exit (want >=2 each, matched)", enters, exits)
	}
	if stage2Events == 0 {
		t.Fatalf("no events attributed to stage 2")
	}
	// Byte-determinism extends to two-stage traces.
	if !bytes.Equal(tr, runTracedTwoStage(t, 1)) {
		t.Fatalf("two-stage trace not byte-deterministic across replays")
	}
}

func TestSingleStageTraceHasNoStageFields(t *testing.T) {
	// With stage 2 off, the trace must not mention stages at all — the
	// schema addition is invisible, keeping old goldens byte-identical.
	tr := runTraced(t, 1)
	if bytes.Contains(tr, []byte(`"stage"`)) || bytes.Contains(tr, []byte("stage_enter")) {
		t.Fatalf("single-stage trace leaks stage fields")
	}
}

// runMergeSession runs a serial afl++-sysopt btree session. Image
// generation is off, so every execution goes through the feedback step.
// The session always writes a JSONL trace; full adds every other sink
// (status ticker, stats files). It returns the result, the final
// registry snapshot and the trace bytes.
func runMergeSession(t *testing.T, full bool) (*Result, obs.Snapshot, []byte) {
	t.Helper()
	cfg, err := DefaultConfig("btree", AFLSysOpt, 20_000_000, 42)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ocfg := obs.Config{
		Workload: "btree", FuzzConfig: string(AFLSysOpt), Workers: 1,
		Seed: 42, BudgetNS: cfg.BudgetNS, TracePath: filepath.Join(dir, "trace.jsonl"),
	}
	if full {
		ocfg.StatusEvery, ocfg.StatusW = 5_000_000, io.Discard
		ocfg.OutDir = filepath.Join(dir, "out")
	}
	sess, err := obs.NewSession(ocfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Start(); err != nil {
		t.Fatal(err)
	}
	f.SetTelemetry(sess)
	res := f.Run()
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := os.ReadFile(ocfg.TracePath)
	if err != nil {
		t.Fatal(err)
	}
	return res, sess.M.Snapshot(), tr
}

// TestTelemetryMergeStagePerExecution checks that the per-execution
// coverage merge is accounted under the merge stage — one op per
// execution in a serial session without image generation — and that the
// timing stays read-only: the session digest matches an untelemetered
// run and the trace is byte-identical with every sink on or only the
// trace sink.
func TestTelemetryMergeStagePerExecution(t *testing.T) {
	res, snap, full := runMergeSession(t, true)
	if res.Execs == 0 {
		t.Fatal("session ran no executions")
	}
	if snap.Execs != int64(res.Execs) {
		t.Errorf("registry execs = %d, result execs = %d", snap.Execs, res.Execs)
	}
	if got := snap.Stages[obs.StageMerge].Ops; got != snap.Execs {
		t.Errorf("merge stage ops = %d, execs = %d", got, snap.Execs)
	}
	if snap.Stages[obs.StageMerge].NS <= 0 {
		t.Errorf("merge stage recorded no time")
	}
	traceOnly, _, only := runMergeSession(t, false)
	if !bytes.Equal(full, only) {
		t.Errorf("trace differs between full telemetry and trace-only sessions")
	}
	cfg, err := DefaultConfig("btree", AFLSysOpt, 20_000_000, 42)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	off := sessionDigest(f.Run())
	if sessionDigest(res) != off || sessionDigest(traceOnly) != off {
		t.Errorf("session digest changed with telemetry attached")
	}
}
