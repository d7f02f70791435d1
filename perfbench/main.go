// Command perfbench is the repository's benchmark. It runs one
// workload in-process through the public packages for a fixed wall
// time, checks the outputs, and prints every metric by name and unit.
// The last line of standard output is a JSON object with the keys
// correct, attempted, failed and metrics. With -trace 0 the metrics are
// the end-to-end ones; with -trace 1 a separate traced run reports the
// per-layer ones. See README.md for the workloads and metrics.
//
//	bash perfbench/run.sh --workload pmfuzz-btree --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's machine-readable last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the metrics of an untraced run, with their units.
var endToEnd = [][2]string{
	{"setup_s", "s"},
	{"sim_ms_per_s", "ms/s"},
	{"execs_per_s", "1/s"},
	{"pm_paths", "count"},
	{"cases_per_s", "1/s"},
	{"case_ms_p50", "ms"},
	{"case_ms_tail", "ms"},
	{"heap_peak_mb", "MB"},
	{"ok_ratio", "ratio"},
}

// perLayer lists the metrics of a traced run, with their units.
var perLayer = [][2]string{
	{"core.stage.mutate_ms", "ms"}, {"core.stage.mutate_ops", "count"},
	{"core.stage.exec_ms", "ms"}, {"core.stage.exec_ops", "count"},
	{"core.stage.sweep_ms", "ms"}, {"core.stage.sweep_ops", "count"},
	{"core.stage.imgstore_put_ms", "ms"}, {"core.stage.imgstore_put_ops", "count"},
	{"core.stage.imgstore_get_ms", "ms"}, {"core.stage.imgstore_get_ops", "count"},
	{"core.unattributed_share", "ratio"},
	{"core.alloc_kb_per_exec", "KB"},
	{"core.gc_cycles", "count"},
	{"fuzz.havoc_us", "us"},
	{"executor.run_us_p50", "us"},
	{"executor.allocs_per_run", "count"},
	{"instr.merge_us", "us"},
	{"executor.sweep_ms_p50", "ms"},
	{"executor.crash_states", "count"},
	{"pmem.hash_us_per_image", "us"},
	{"imgstore.put_us_p50", "us"},
	{"imgstore.get_us_p50", "us"},
	{"imgstore.bytes_per_image", "B"},
	{"imgstore.cache_hit_ratio", "ratio"},
	{"oracle.check_ms_p50", "ms"},
	{"oracle.recoveries_per_state", "ratio"},
	{"oracle.memo_hit_ratio", "ratio"},
	{"invariant.mine_ms_p50", "ms"},
	{"invariant.check_ms_p50", "ms"},
	{"invariant.recoveries_per_state", "ratio"},
	{"xfd.check_ms_p50", "ms"},
	{"xfd.post_runs_per_point", "ratio"},
	{"pmcheck.check_us_p50", "us"},
	{"trace.overhead_ratio", "ratio"},
}

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 25

// tracedShare is the percentage of a traced run's time spent on the
// paired untraced and traced measurements; the replay takes the rest.
const tracedShare = 75

// report collects one run's metrics, output-check failures and
// human-readable notes.
type report struct {
	res      result
	units    map[string]string
	problems []string
	notes    []string
}

func newReport(traced bool) *report {
	r := &report{res: result{Correct: true, Metrics: map[string]metric{}}, units: map[string]string{}}
	list := endToEnd
	if traced {
		list = perLayer
	}
	for _, m := range list {
		r.units[m[0]] = m[1]
	}
	return r
}

// set records a metric; the unit comes from the metric table.
func (r *report) set(name string, v float64) {
	u, ok := r.units[name]
	if !ok {
		panic("perfbench: metric not in this run's table: " + name)
	}
	r.res.Metrics[name] = metric{Value: v, Unit: u}
}

// problem records a failed output check; the run is then not correct.
func (r *report) problem(format string, args ...interface{}) {
	r.res.Correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// note adds a line to the human-readable report.
func (r *report) note(format string, args ...interface{}) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// print writes the human-readable report and then the JSON line.
func (r *report) print() {
	for name := range r.units {
		if _, ok := r.res.Metrics[name]; !ok {
			panic("perfbench: metric never set: " + name)
		}
	}
	for _, n := range r.notes {
		fmt.Println("#", n)
	}
	names := make([]string, 0, len(r.res.Metrics))
	for n := range r.res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.res.Metrics[n]
		fmt.Printf("# %-32s %16.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("# fail_ratio %d/%d = %.6g\n", r.res.Failed, r.res.Attempted,
		ratio(float64(r.res.Failed), float64(r.res.Attempted)))
	for _, p := range r.problems {
		fmt.Println("# CHECK FAILED:", p)
	}
	out, err := json.Marshal(r.res)
	if err != nil {
		panic(err)
	}
	fmt.Println(string(out))
}

func main() {
	workload := flag.String("workload", "", "workload: pmfuzz-btree, aflsys-hashmap or check-btree")
	seed := flag.Int64("seed", 1, "workload seed: fuzz session seeds are derived from it, check cases generated from it")
	seconds := flag.Int("seconds", 35, "wall seconds one run measures")
	trace := flag.Int("trace", 0, "0 runs the end-to-end run, 1 the traced per-layer run")
	outDir := flag.String("outdir", ".bench_build", "directory the traced run writes its spans to")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	traced := *trace == 1
	dur := time.Duration(*seconds) * time.Second
	r := newReport(traced)
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	var err error
	if spec, ok := fuzzSpecs[*workload]; ok {
		err = runFuzz(r, rec, spec, *seed, dur)
	} else if *workload == "check-btree" {
		err = runCheck(r, rec, *seed, dur)
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want pmfuzz-btree, aflsys-hashmap or check-btree)\n", *workload)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if traced {
		path := filepath.Join(*outDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))
		if err := rec.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			os.Exit(1)
		}
		r.note("spans: %d written to %s", len(rec.spans), path)
	}
	r.print()
}
