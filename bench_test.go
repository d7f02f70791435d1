package pmfuzz

// One benchmark per table and figure of the paper's evaluation (§5).
// Each benchmark prints the regenerated rows/series via b.ReportMetric
// and (for the renderable artifacts) b.Log; EXPERIMENTS.md records the
// paper-vs-measured comparison.
//
// Budgets are simulated time. Override with PMFUZZ_BENCH_BUDGET_MS to
// scale every experiment up or down.

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pmfuzz/internal/core"
	"pmfuzz/internal/executor"
	"pmfuzz/internal/experiments"
	"pmfuzz/internal/obs"
	"pmfuzz/internal/oracle"
	"pmfuzz/internal/workloads"
	"pmfuzz/internal/workloads/bugs"
	"pmfuzz/internal/xfd"
)

// benchBudgetNS returns the per-session simulated budget.
func benchBudgetNS(defMS int64) int64 {
	if v := os.Getenv("PMFUZZ_BENCH_BUDGET_MS"); v != "" {
		if ms, err := strconv.ParseInt(v, 10, 64); err == nil && ms > 0 {
			return ms * 1_000_000
		}
	}
	return defMS * 1_000_000
}

// BenchmarkFig13PMPathCoverage regenerates Figure 13: PM-path coverage
// under an equal simulated budget for all eight workloads × five
// configurations. The pmpaths metric is the figure's y-axis endpoint.
func BenchmarkFig13PMPathCoverage(b *testing.B) {
	budget := benchBudgetNS(200)
	for _, wl := range experiments.PaperWorkloads() {
		for _, cn := range core.ConfigNames() {
			b.Run(fmt.Sprintf("%s/%s", wl, cn), func(b *testing.B) {
				var paths, execs int
				for i := 0; i < b.N; i++ {
					cfg, err := core.DefaultConfig(wl, cn, budget, 7)
					if err != nil {
						b.Fatal(err)
					}
					f, err := core.New(cfg, nil)
					if err != nil {
						b.Fatal(err)
					}
					res := f.Run()
					paths, execs = res.PMPaths, res.Execs
				}
				b.ReportMetric(float64(paths), "pmpaths")
				b.ReportMetric(float64(execs), "execs")
			})
		}
	}
}

// BenchmarkFig13Geomean reports the paper's headline geo-mean PM-path
// ratio of PMFuzz over AFL++ (paper: 4.6x).
func BenchmarkFig13Geomean(b *testing.B) {
	budget := benchBudgetNS(200)
	var g, gSys, gImg float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig13(nil, budget, 7)
		if err != nil {
			b.Fatal(err)
		}
		g = res.GeomeanSpeedup(core.PMFuzzAll, core.AFLPlusPlus)
		gSys = res.GeomeanSpeedup(core.AFLSysOpt, core.AFLPlusPlus)
		gImg = res.GeomeanSpeedup(core.PMFuzzAll, core.AFLImgFuzz)
	}
	b.ReportMetric(g, "pmfuzz/afl++")
	b.ReportMetric(gSys, "sysopt/afl++")
	b.ReportMetric(gImg, "pmfuzz/imgfuzz")
}

// BenchmarkTable2Configs profiles the five comparison points' execution
// throughput on one workload — the feature-cost view behind Table 2.
func BenchmarkTable2Configs(b *testing.B) {
	budget := benchBudgetNS(150)
	for _, cn := range core.ConfigNames() {
		b.Run(string(cn), func(b *testing.B) {
			var execsPerSimSec float64
			for i := 0; i < b.N; i++ {
				cfg, err := core.DefaultConfig("btree", cn, budget, 7)
				if err != nil {
					b.Fatal(err)
				}
				f, err := core.New(cfg, nil)
				if err != nil {
					b.Fatal(err)
				}
				res := f.Run()
				execsPerSimSec = float64(res.Execs) / (float64(res.SimNS) / 1e9)
			}
			b.ReportMetric(execsPerSimSec, "execs/sim-sec")
		})
	}
}

// BenchmarkParallelScaling measures fleet throughput at 1/2/4/8 workers
// on the tree workload. Following the paper's §5.1 fleet setup (N AFL
// instances, equal wall clock), every worker burns the full simulated
// budget on its own clock shard and the merged time axis is the max over
// shards, so the scaling signal is execs per simulated second: an
// N-worker fleet should sustain close to N× the single-instance rate.
// Wall-clock execs/sec is reported alongside for the host-side cost.
func BenchmarkParallelScaling(b *testing.B) {
	budget := benchBudgetNS(100)
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var execsPerSimSec float64
			totalExecs := 0
			for i := 0; i < b.N; i++ {
				cfg, err := core.DefaultConfig("btree", core.PMFuzzAll, budget, 7)
				if err != nil {
					b.Fatal(err)
				}
				cfg.Workers = workers
				f, err := core.New(cfg, nil)
				if err != nil {
					b.Fatal(err)
				}
				res := f.Run()
				execsPerSimSec = float64(res.Execs) / (float64(res.SimNS) / 1e9)
				totalExecs += res.Execs
			}
			b.ReportMetric(execsPerSimSec, "execs/sim-sec")
			b.ReportMetric(float64(totalExecs)/b.Elapsed().Seconds(), "target-execs/sec")
		})
	}
}

// fleetRun is one pmfuzz process's parsed summary output.
type fleetRun struct {
	execs                            int
	published, imported, dedup, errs int64
	bytesOut, bytesIn                int64
}

// runFleetMember spawns one pmfuzz process and parses its summary.
// An empty syncDir runs the plain solo session (no fleet flags at all —
// the deterministic baseline path).
func runFleetMember(bin, syncDir, id string, seed, budgetMS int64) (fleetRun, error) {
	args := []string{
		"-workload", "btree",
		"-budget-ms", strconv.FormatInt(budgetMS, 10),
		"-seed", strconv.FormatInt(seed, 10),
	}
	if syncDir != "" {
		args = append(args, "-sync-dir", syncDir, "-fuzzer-id", id, "-sync-every", "100ms")
	}
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		return fleetRun{}, fmt.Errorf("member %s: %v\n%s", id, err, out)
	}
	var r fleetRun
	sawExecs := false
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "executions:") {
			if _, err := fmt.Sscanf(line, "executions: %d", &r.execs); err != nil {
				return r, fmt.Errorf("member %s: bad executions line %q", id, line)
			}
			sawExecs = true
		}
		if strings.HasPrefix(line, "sync:") {
			if _, err := fmt.Sscanf(line,
				"sync: published %d, imported %d (%d dedup), errors %d, bytes out/in %d/%d",
				&r.published, &r.imported, &r.dedup, &r.errs, &r.bytesOut, &r.bytesIn); err != nil {
				return r, fmt.Errorf("member %s: bad sync line %q", id, line)
			}
		}
	}
	if !sawExecs {
		return r, fmt.Errorf("member %s printed no executions line:\n%s", id, out)
	}
	return r, nil
}

// BenchmarkFleetScaling measures the multi-process fleet end to end: N
// pmfuzz processes with distinct seeds share one -sync-dir, each burns
// the same simulated budget on btree, and corpus entries (inputs and
// crash-image blobs) flow through the sync directory. Following the
// BenchmarkParallelScaling convention the time axis is simulated — all
// members burn the full budget on their own clocks — so the scaling
// signal is aggregate execs per simulated second: the bar is >= 2.5x
// the solo rate at 4 processes. The sync traffic metrics (bytes moved,
// dedup hit rate) come from each member's own sync summary. The
// sync-overhead leg runs the same solo session with and without the
// fleet flags and reports the wall-clock cost of syncing against an
// empty fleet: the bar is < 5%.
func BenchmarkFleetScaling(b *testing.B) {
	budgetMS := benchBudgetNS(60) / 1_000_000
	simSec := float64(budgetMS) / 1e3
	bin := filepath.Join(b.TempDir(), "pmfuzz")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/pmfuzz").CombinedOutput(); err != nil {
		b.Fatalf("building CLI: %v\n%s", err, out)
	}

	// runFleet launches n members concurrently over one fresh sync dir
	// (or solo without fleet flags when withSync is false).
	runFleet := func(b *testing.B, n int, withSync bool) []fleetRun {
		b.Helper()
		dir := ""
		if withSync {
			dir = b.TempDir()
		}
		runs := make([]fleetRun, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				runs[i], errs[i] = runFleetMember(bin, dir, fmt.Sprintf("f%d", i), int64(11+i), budgetMS)
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
		return runs
	}

	var soloRate float64
	for _, n := range []int{1, 2, 4} {
		n := n
		b.Run(fmt.Sprintf("procs=%d", n), func(b *testing.B) {
			var agg float64
			var runs []fleetRun
			for i := 0; i < b.N; i++ {
				runs = runFleet(b, n, true)
				total := 0
				for _, r := range runs {
					total += r.execs
				}
				agg = float64(total) / simSec
			}
			b.ReportMetric(agg, "aggregate-execs/sim-sec")
			if n == 1 {
				soloRate = agg
			} else if soloRate > 0 {
				b.ReportMetric(agg/soloRate, "scaling-x")
			}
			var moved, imported, dedup, errCount float64
			for _, r := range runs {
				moved += float64(r.bytesOut + r.bytesIn)
				imported += float64(r.imported)
				dedup += float64(r.dedup)
				errCount += float64(r.errs)
			}
			b.ReportMetric(moved, "sync-bytes")
			b.ReportMetric(errCount, "sync-errors")
			if imported+dedup > 0 {
				b.ReportMetric(100*dedup/(imported+dedup), "dedup-hit-pct")
			}
		})
	}
	b.Run("sync-overhead", func(b *testing.B) {
		var with, without time.Duration
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			runFleet(b, 1, false)
			without += time.Since(t0)
			t0 = time.Now()
			runFleet(b, 1, true)
			with += time.Since(t0)
		}
		b.ReportMetric(100*(with.Seconds()/without.Seconds()-1), "sync-overhead-pct")
	})
}

// BenchmarkTable3SyntheticBugs regenerates Table 3 one workload at a
// time: inject every synthetic bug, fuzz under PMFuzz and AFL++ w/
// SysOpt, hand test cases to the tools, count detections.
func BenchmarkTable3SyntheticBugs(b *testing.B) {
	budget := benchBudgetNS(300)
	for _, wl := range experiments.PaperWorkloads() {
		b.Run(wl, func(b *testing.B) {
			var row experiments.Table3Row
			for i := 0; i < b.N; i++ {
				res, err := experiments.Table3([]string{wl}, budget, 7, experiments.DefaultDetect())
				if err != nil {
					b.Fatal(err)
				}
				row = res.Rows[0]
			}
			b.ReportMetric(float64(row.Total), "injected")
			b.ReportMetric(float64(row.PMFuzz), "pmfuzz-found")
			b.ReportMetric(float64(row.AFLSysOpt), "aflsysopt-found")
		})
	}
}

// BenchmarkSec54RealBugs regenerates §5.4: reproduce each of the twelve
// real-world bugs with PMFuzz-generated test cases.
func BenchmarkSec54RealBugs(b *testing.B) {
	budget := benchBudgetNS(500)
	var detected int
	for i := 0; i < b.N; i++ {
		res, err := experiments.RealBugs(budget, 7, experiments.DefaultDetect())
		if err != nil {
			b.Fatal(err)
		}
		detected = res.DetectedCount()
	}
	b.ReportMetric(float64(detected), "bugs-found")
	b.ReportMetric(float64(bugs.NumRealBugs), "bugs-total")
}

// BenchmarkSec541TimeToBug regenerates §5.4.1: the (simulated) time to
// generate the test case that exposes each real-world bug. The paper
// reports 2 s for the init-path bugs and 37–91 s for the deeper ones;
// the shape to preserve is init bugs ≪ deep bugs.
func BenchmarkSec541TimeToBug(b *testing.B) {
	budget := benchBudgetNS(500)
	for bug := bugs.RealBug(1); bug <= bugs.NumRealBugs; bug++ {
		bug := bug
		b.Run(fmt.Sprintf("bug%d", int(bug)), func(b *testing.B) {
			var ms float64 = -1
			for i := 0; i < b.N; i++ {
				res, err := experiments.RealBug1(bug, budget, 7, experiments.DefaultDetect())
				if err != nil {
					b.Fatal(err)
				}
				if res.Detected {
					ms = float64(res.SimNS) / 1e6
				}
			}
			b.ReportMetric(ms, "detect-sim-ms")
		})
	}
}

// BenchmarkAblation isolates the contribution of each PMFuzz design
// decision by disabling one at a time: crash-image generation (§3.2),
// PM-path feedback (§3.3), and indirect image generation (§3.1).
func BenchmarkAblation(b *testing.B) {
	budget := benchBudgetNS(300)
	base, err := core.DefaultConfig("hashmap-tx", core.PMFuzzAll, budget, 7)
	if err != nil {
		b.Fatal(err)
	}
	variants := []struct {
		name   string
		mutate func(core.Config) core.Config
	}{
		{"full", func(c core.Config) core.Config { return c }},
		{"no-crash-images", func(c core.Config) core.Config {
			c.MaxBarrierImages = 0
			c.ProbFailRate = 0
			return c
		}},
		{"no-pm-path-feedback", func(c core.Config) core.Config {
			c.Features.PMPathOpt = false
			return c
		}},
		{"no-image-generation", func(c core.Config) core.Config {
			c.Features.ImgFuzzIndirect = false
			c.MaxBarrierImages = 0
			c.ProbFailRate = 0
			return c
		}},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			var paths, crashEntries int
			for i := 0; i < b.N; i++ {
				f, err := core.New(v.mutate(base), nil)
				if err != nil {
					b.Fatal(err)
				}
				res := f.Run()
				paths = res.PMPaths
				crashEntries = 0
				for _, e := range res.Queue.Entries() {
					if e.IsCrashImage {
						crashEntries++
					}
				}
			}
			b.ReportMetric(float64(paths), "pmpaths")
			b.ReportMetric(float64(crashEntries), "crash-images")
		})
	}
}

// BenchmarkFuzzerThroughput is the raw end-to-end fuzzing speed: how
// many target executions per wall-clock second the whole stack sustains.
func BenchmarkFuzzerThroughput(b *testing.B) {
	budget := benchBudgetNS(100)
	b.ReportAllocs()
	totalExecs := 0
	for i := 0; i < b.N; i++ {
		cfg, err := core.DefaultConfig("hashmap-tx", core.PMFuzzAll, budget, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		f, err := core.New(cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		res := f.Run()
		totalExecs += res.Execs
	}
	b.ReportMetric(float64(totalExecs)/b.Elapsed().Seconds(), "target-execs/sec")
}

// BenchmarkExecHotLoop measures the steady-state cost of one fuzzing
// execution — the hot path everything else multiplies. "fresh" allocates
// a new device (~2×poolsize) and tracer (2×64 KiB) per run, the
// pre-arena behavior; "arena" reuses one executor.Arena exactly the way
// each fuzzing worker does (device reset in place, pooled tracer) — the
// persistent-mode/forkserver analog. The acceptance bar for this PR: the arena leg sustains ≥1.5×
// the fresh leg's execs/sec with ≥80% fewer allocs/op.
func BenchmarkExecHotLoop(b *testing.B) {
	tc := executor.TestCase{Workload: "btree", Input: benchSweepInput(), Seed: 1}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res := executor.Run(tc, executor.Options{})
			if res.Faulted() {
				b.Fatalf("execution faulted: err=%v panic=%v", res.Err, res.PanicVal)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "execs/sec")
	})
	b.Run("arena", func(b *testing.B) {
		arena := executor.NewArena()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res := executor.Run(tc, executor.Options{Arena: arena})
			if res.Faulted() {
				b.Fatalf("execution faulted: err=%v panic=%v", res.Err, res.PanicVal)
			}
			arena.Recycle(res)
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "execs/sec")
	})
}

// BenchmarkTelemetryOverhead measures what the obs layer adds to the
// execution hot path, against the same arena loop as
// BenchmarkExecHotLoop. "off" is the baseline (nil shard — telemetry
// detached, the default); "shard" attaches a per-worker metrics shard
// and folds it into the registry at the coordinator's sampling cadence;
// "sinks" additionally runs a live session flushing every sink (status
// line to io.Discard, fuzzer_stats/plot_data and the JSONL trace in a
// temp dir). The PR's acceptance bar: the shard leg stays within 2% of
// off — telemetry must be effectively free where executions happen.
func BenchmarkTelemetryOverhead(b *testing.B) {
	tc := executor.TestCase{Workload: "btree", Input: benchSweepInput(), Seed: 1}
	loop := func(b *testing.B, shard *obs.Shard, m *obs.Metrics) {
		arena := executor.NewArena()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res := executor.Run(tc, executor.Options{Arena: arena, Shard: shard})
			if res.Faulted() {
				b.Fatalf("execution faulted: err=%v panic=%v", res.Err, res.PanicVal)
			}
			arena.Recycle(res)
			if m != nil && i%20 == 19 { // the engine's SampleEveryExecs cadence
				m.MergeShard(shard)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "execs/sec")
	}
	b.Run("off", func(b *testing.B) { loop(b, nil, nil) })
	b.Run("shard", func(b *testing.B) {
		m := obs.NewMetrics("btree", "pmfuzz", 1, 1, 0)
		var sh obs.Shard
		loop(b, &sh, m)
	})
	b.Run("sinks", func(b *testing.B) {
		dir := b.TempDir()
		sess, err := obs.NewSession(obs.Config{
			Workload: "btree", FuzzConfig: "pmfuzz", Workers: 1, Seed: 1,
			StatusEvery: 50 * time.Millisecond, StatusW: io.Discard,
			OutDir:    dir,
			TracePath: filepath.Join(dir, "trace.jsonl"),
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := sess.Start(); err != nil {
			b.Fatal(err)
		}
		var sh obs.Shard
		loop(b, &sh, sess.M)
		b.StopTimer()
		if err := sess.Close(); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkWorkloadExecution measures single-execution cost per workload
// (the unit of all fuzzing throughput).
func BenchmarkWorkloadExecution(b *testing.B) {
	for _, wl := range experiments.PaperWorkloads() {
		wl := wl
		b.Run(wl, func(b *testing.B) {
			prog, err := workloads.New(wl)
			if err != nil {
				b.Fatal(err)
			}
			input := prog.SeedInputs()[0]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := executor.Run(executor.TestCase{Workload: wl, Input: input, Seed: 1}, executor.Options{})
				if res.Faulted() {
					b.Fatalf("seed execution faulted: err=%v panic=%v", res.Err, res.PanicVal)
				}
			}
		})
	}
}

// benchSweepInput is the B-Tree input for the crash-image sweep
// benchmarks: enough inserts to cross node splits, plus a removal and a
// consistency check, yielding a few hundred ordering points.
func benchSweepInput() []byte {
	var in []byte
	for i := 1; i <= 20; i++ {
		in = append(in, []byte(fmt.Sprintf("i %d %d\n", i*5%23, i))...)
	}
	return append(in, []byte("r 5\nc\n")...)
}

// BenchmarkCrashImageSweep compares the two crash-image generation
// paths on B-Tree: "reexec" re-runs the input once per ordering point
// (the pre-optimization behavior, kept as executor.CrashImagesReexec),
// "sweep" journals copy-on-write deltas during ONE execution and
// materializes every barrier image from the journal. Both must produce
// byte-identical images — checked here before timing and pinned by
// TestSweepGoldenEquivalence.
func BenchmarkCrashImageSweep(b *testing.B) {
	tc := executor.TestCase{Workload: "btree", Input: benchSweepInput(), Seed: 3}
	old := executor.CrashImagesReexec(tc, executor.Options{}, 0, 0.002, 2)
	nw := executor.CrashImages(tc, executor.Options{}, 0, 0.002, 2)
	if len(old) == 0 || len(old) != len(nw) {
		b.Fatalf("result counts differ: reexec=%d sweep=%d", len(old), len(nw))
	}
	for i := range old {
		if old[i].Image.Hash() != nw[i].Image.Hash() {
			b.Fatalf("image %d: hash mismatch between reexec and sweep", i)
		}
	}
	b.Run("reexec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			executor.CrashImagesReexec(tc, executor.Options{}, 0, 0.002, 2)
		}
	})
	b.Run("sweep", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			executor.CrashImages(tc, executor.Options{}, 0, 0.002, 2)
		}
	})
	// Growth in the barrier count: the re-execution path is O(barriers ×
	// ops), the journaled path pays one execution plus O(changed lines)
	// per materialized barrier, so doubling maxBarriers must far less
	// than double the sweep's ns/op.
	for _, mb := range []int{25, 50, 100, 200} {
		mb := mb
		b.Run(fmt.Sprintf("sweep-barriers-%d", mb), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				executor.CrashImages(tc, executor.Options{}, mb, 0, 0)
			}
		})
		b.Run(fmt.Sprintf("reexec-barriers-%d", mb), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				executor.CrashImagesReexec(tc, executor.Options{}, mb, 0, 0)
			}
		})
	}
}

// BenchmarkXFDSweep compares the cross-failure checker's pre-failure
// strategies: "per-barrier" re-executes the input for every ordering
// point (xfd.CheckPost), "sweep" materializes all crash states from one
// journaled run (xfd.CheckPostSweep). Post-failure executions remain
// per-point in both modes, so the delta here is the pre-failure side.
func BenchmarkXFDSweep(b *testing.B) {
	tc := executor.TestCase{Workload: "btree", Input: benchSweepInput(), Seed: 3}
	b.Run("per-barrier", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			xfd.CheckPost(tc, 0, 0.002, 2, nil)
		}
	})
	b.Run("sweep", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			xfd.CheckPostSweep(tc, 0, 0.002, 2, nil)
		}
	})
}

// BenchmarkPrunedSweep measures the representative-state pruning layer:
// an oracle sweep that recovers one representative per behavioral
// equivalence class ("pruned") against per-member checking ("full", the
// pre-pruning behavior forced by Options.NoPrune). Equivalence — the
// identical violation set — is verified before timing; the reported
// metrics pin the sub-linear claim (recoveries_saved, reduction_x ≥ 3
// on btree at equal barriers).
func BenchmarkPrunedSweep(b *testing.B) {
	cases := []struct {
		name     string
		workload string
		input    []byte
	}{
		{"btree", "btree", benchSweepInput()},
		{"rbtree", "rbtree", benchSweepInput()},
		{"redis", "redis", []byte("SET 1 1\nSET 9 2\nSET 17 3\nSET 25 4\nDEL 9\nSET 33 5\nCHECK\n")},
	}
	for _, c := range cases {
		c := c
		tc := executor.TestCase{Workload: c.workload, Input: c.input, Seed: 3}
		pruned := oracle.Check(tc, oracle.Options{PreFence: true})
		full := oracle.Check(tc, oracle.Options{PreFence: true, NoPrune: true})
		if pruned.Skipped != "" || full.Skipped != "" {
			b.Fatalf("%s: oracle skipped (%q / %q)", c.name, pruned.Skipped, full.Skipped)
		}
		if len(pruned.Violations) != len(full.Violations) || pruned.Checked != full.Checked {
			b.Fatalf("%s: pruned and full sweeps disagree (%d/%d violations, %d/%d checked)",
				c.name, len(pruned.Violations), len(full.Violations), pruned.Checked, full.Checked)
		}
		perMember := full.Checked + 1
		b.Run(c.name+"/pruned", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				oracle.Check(tc, oracle.Options{PreFence: true})
			}
			b.ReportMetric(float64(pruned.Checked), "states")
			b.ReportMetric(float64(pruned.Classes), "classes")
			b.ReportMetric(float64(pruned.Recoveries), "recoveries")
			b.ReportMetric(float64(perMember-pruned.Recoveries), "recoveries_saved")
			b.ReportMetric(float64(perMember)/float64(pruned.Recoveries), "reduction_x")
			b.ReportMetric(float64(len(pruned.Violations)), "violations")
		})
		b.Run(c.name+"/full", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				oracle.Check(tc, oracle.Options{PreFence: true, NoPrune: true})
			}
			b.ReportMetric(float64(full.Checked), "states")
			b.ReportMetric(float64(full.Recoveries), "recoveries")
			b.ReportMetric(float64(len(full.Violations)), "violations")
		})
	}
}
