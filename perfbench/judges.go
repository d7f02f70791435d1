package main

import (
	"time"

	"pmfuzz/internal/executor"
	"pmfuzz/internal/invariant"
	"pmfuzz/internal/oracle"
	"pmfuzz/internal/pmcheck"
	"pmfuzz/internal/pmem"
	"pmfuzz/internal/xfd"
)

// judges runs one test case through the four downstream testing tools
// (paper Fig 9 step 5): the differential oracle, the mined-invariant
// oracle, the cross-failure detector and the Pmemcheck analog.
type judges struct {
	ock   *oracle.Checker
	ick   *invariant.Checker
	arena *executor.Arena
}

func newJudges() *judges {
	return &judges{ock: oracle.NewChecker(), ick: invariant.NewChecker(), arena: executor.NewArena()}
}

// verdict is what the judges reported for one case, with the work they
// did and how long each took.
type verdict struct {
	// Findings per judge, and why a judge could not judge the case.
	oracle, invariant, xfd, pmcheck int
	skipped                         []string
	// The clean execution's simulated time.
	simNS int64
	// Target executions the judges report running.
	execs int
	// Work counters for the per-layer ratios.
	oracleRec, oracleChecked, oracleMemo int
	invRec, invChecked                   int
	xfdPosts, xfdPoints                  int
	// Wall times per judge call.
	oracleMS, mineMS, invMS, xfdMS, pmcheckUS float64
}

// judge runs tc through every judge. Each call is timed, and recorded as
// a child span of parent when rec is non-nil.
func (j *judges) judge(tc executor.TestCase, maxCommands int, rec *recorder, group string, parent int) verdict {
	var v verdict
	timed := func(name string, fn func()) time.Duration {
		id := rec.begin(name, group, parent)
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		rec.end(id)
		return d
	}

	var orep *oracle.Report
	v.oracleMS = ms(timed("oracle.Check", func() {
		orep = j.ock.Check(tc, oracle.Options{PreFence: true, MaxCommands: maxCommands})
	}))
	if orep.Skipped != "" {
		v.skipped = append(v.skipped, "oracle: "+orep.Skipped)
	}
	v.oracle = len(orep.Violations)
	v.oracleRec, v.oracleChecked, v.oracleMemo = orep.Recoveries, orep.Checked, orep.MemoHits
	v.execs += 1 + orep.Recoveries

	var set *invariant.Set
	var mineErr error
	v.mineMS = ms(timed("invariant.MineCase", func() {
		set, mineErr = j.ick.MineCase(tc, invariant.Options{MaxCommands: maxCommands})
	}))
	v.execs++
	if mineErr != nil {
		v.skipped = append(v.skipped, "invariant: "+mineErr.Error())
	} else {
		var irep *invariant.Report
		v.invMS = ms(timed("invariant.Check", func() {
			irep = j.ick.Check(tc, set, invariant.Options{PreFence: true, MaxCommands: maxCommands})
		}))
		if irep.Skipped != "" {
			v.skipped = append(v.skipped, "invariant: "+irep.Skipped)
		}
		v.invariant = len(irep.Violations)
		v.invRec, v.invChecked = irep.Recoveries, irep.Checked
		v.execs += 1 + irep.Recoveries
	}

	var xreps []xfd.Report
	var xst xfd.SweepStats
	v.xfdMS = ms(timed("xfd.CheckPostSweepStats", func() {
		xreps, xst = xfd.CheckPostSweepStats(tc, 0, 0, 0, nil, false)
	}))
	v.xfd = len(xreps)
	v.xfdPosts, v.xfdPoints = xst.Posts, xst.Points
	v.execs += 1 + xst.Posts

	clock := pmem.NewClock()
	var res *executor.Result
	timed("executor.Run", func() {
		res = executor.Run(tc, executor.Options{RecordTrace: true, Clock: clock, Arena: j.arena, MaxCommands: maxCommands})
	})
	v.execs++
	v.simNS = clock.Now()
	if res.Faulted() {
		v.pmcheck++ // pmcheck reports a faulting run as a finding
	}
	var preps []pmcheck.Report
	v.pmcheckUS = us(timed("pmcheck.Check", func() {
		preps = pmcheck.Check(res.Trace.Events())
	}))
	v.pmcheck += len(preps)
	j.arena.Recycle(res)
	j.arena.RecycleImage(res.Image)
	return v
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
