package main

import (
	"fmt"
	"time"

	"pmfuzz/internal/executor"
	"pmfuzz/internal/fuzz"
	"pmfuzz/internal/imgstore"
	"pmfuzz/internal/instr"
	"pmfuzz/internal/obs"
	"pmfuzz/internal/pmem"
	"pmfuzz/internal/workloads"
)

// replayItem is one test case replayed through the layers: a command
// input and the PM image it starts from (nil for a fresh device).
type replayItem struct {
	input []byte
	image *pmem.Image
}

// replayPlan says what to replay and how much of it.
type replayPlan struct {
	workload    string
	seed        int64
	maxCommands int
	items       []replayItem
	// sweeps caps how many items are replayed through the crash-state
	// sweep; judged how many through the four judges.
	sweeps, judged int
	// shard, when non-nil, receives the obs stage accounting of the
	// replay's own calls.
	shard *obs.Shard
}

// replayOut holds per-call costs and work counts by layer.
type replayOut struct {
	havocUS, runUS, mergeUS, sweepMS, hashUS, putUS, getUS []float64
	allocsPerRun, statesPerSweep, bytesPerImage            float64
	verdicts                                               []verdict
}

// maxReplayImages caps the images replayed through hashing and the store.
const maxReplayImages = 200

// replay times each layer's exported functions on the plan's items,
// one span per call under a "replay" root span.
func replay(rec *recorder, group string, p replayPlan) (*replayOut, int, error) {
	prog, err := workloads.New(p.workload)
	if err != nil {
		return nil, -1, err
	}
	out := &replayOut{}
	root := rec.begin("replay", group, -1)
	call := func(name string, fn func()) time.Duration {
		id := rec.begin(name, group, root)
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		rec.end(id)
		return d
	}
	tc := func(it replayItem) executor.TestCase {
		return executor.TestCase{Workload: p.workload, Input: it.input, Image: it.image, Seed: p.seed}
	}

	// fuzz: havoc each input, splice every fourth with its neighbour.
	mut := fuzz.NewMutator(p.seed+2, fuzz.DictFor(prog.SeedInputs()))
	for i, it := range p.items {
		t0 := p.shard.Begin()
		if i%4 == 3 {
			out.havocUS = append(out.havocUS, us(call("fuzz.Splice", func() {
				mut.Splice(it.input, p.items[(i+1)%len(p.items)].input)
			})))
		} else {
			out.havocUS = append(out.havocUS, us(call("fuzz.Havoc", func() { mut.Havoc(it.input) })))
		}
		p.shard.End(obs.StageMutate, t0)
	}

	// executor: runs on a resident arena, allocations counted apart from
	// the coverage merge that follows.
	arena := executor.NewArena()
	opts := executor.Options{Arena: arena, MaxCommands: p.maxCommands, Shard: p.shard}
	// The loop is written out so the count holds no allocation of the
	// benchmark's own.
	out.runUS = make([]float64, 0, len(p.items))
	m0 := readMem()
	for _, it := range p.items {
		id := rec.begin("executor.Run", group, root)
		t0 := time.Now()
		res := executor.Run(tc(it), opts)
		out.runUS = append(out.runUS, us(time.Since(t0)))
		rec.end(id)
		arena.Recycle(res)
		arena.RecycleImage(res.Image)
	}
	out.allocsPerRun = ratio(float64(memSince(m0).Mallocs), float64(len(p.items)))

	// instr: merge each run's maps into fresh virgin maps, as the
	// fuzzer's feedback step does, and sign its PM path.
	branch, pm := instr.NewVirgin(), instr.NewVirgin()
	var outImages []*pmem.Image
	for _, it := range p.items {
		res := executor.Run(tc(it), opts)
		out.mergeUS = append(out.mergeUS, us(call("instr.Merge", func() {
			branch.Merge(res.Tracer.BranchMap())
			pm.Merge(res.Tracer.PMMap())
			instr.Signature(res.Tracer.PMMap())
		})))
		if res.Image != nil && len(outImages) < maxReplayImages {
			outImages = append(outImages, res.Image.Clone())
		}
		arena.Recycle(res)
		arena.RecycleImage(res.Image)
	}

	// executor: journaled sweep plus every barrier and pre-fence crash
	// state.
	states := 0
	n := min(p.sweeps, len(p.items))
	for _, it := range p.items[:n] {
		out.sweepMS = append(out.sweepMS, ms(call("executor.SweepRun", func() {
			sw := executor.SweepRun(tc(it), opts)
			sw.EnableIncrementalHash()
			for b := 1; b <= sw.Barriers(); b++ {
				if c := sw.PreFenceCrash(b); c != nil {
					states++
					arena.RecycleImage(c.Image)
				}
				if c := sw.Crash(b); c != nil {
					states++
					arena.RecycleImage(c.Image)
				}
			}
			arena.Recycle(sw.Clean)
			arena.RecycleImage(sw.Clean.Image)
		})))
	}
	out.statesPerSweep = ratio(float64(states), float64(n))

	// pmem and imgstore: the items' own images, or the runs' output
	// images when the items carry none.
	var images []*pmem.Image
	for _, it := range p.items {
		if it.image != nil && len(images) < maxReplayImages {
			images = append(images, it.image)
		}
	}
	if len(images) == 0 {
		images = outImages
	}
	for _, img := range images {
		c := img.Clone()
		out.hashUS = append(out.hashUS, us(call("pmem.Image.Hash", func() { c.Hash() })))
	}
	store := imgstore.New(0) // no cache: every Get decodes
	store.SetShard(p.shard)
	ids := make([]imgstore.ID, 0, len(images))
	for _, img := range images {
		var id imgstore.ID
		var perr error
		out.putUS = append(out.putUS, us(call("imgstore.Put", func() { id, _, perr = store.Put(img) })))
		if perr != nil {
			return nil, root, fmt.Errorf("replay: imgstore put: %w", perr)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		var gerr error
		out.getUS = append(out.getUS, us(call("imgstore.Get", func() { _, gerr = store.Get(id, nil) })))
		if gerr != nil {
			return nil, root, fmt.Errorf("replay: imgstore get: %w", gerr)
		}
	}
	out.bytesPerImage = ratio(float64(store.Stats().CompressedBytes), float64(store.Len()))

	// The judges, on the first few items.
	j := newJudges()
	for _, it := range p.items[:min(p.judged, len(p.items))] {
		out.verdicts = append(out.verdicts, j.judge(tc(it), p.maxCommands, rec, group, root))
	}
	rec.end(root)
	return out, root, nil
}

// setReplayMetrics reports the replay-measured per-layer metrics.
func setReplayMetrics(r *report, o *replayOut) {
	r.set("fuzz.havoc_us", median(o.havocUS))
	r.set("executor.run_us_p50", median(o.runUS))
	r.set("executor.allocs_per_run", o.allocsPerRun)
	r.set("instr.merge_us", median(o.mergeUS))
	r.set("executor.sweep_ms_p50", median(o.sweepMS))
	r.set("executor.crash_states", o.statesPerSweep)
	r.set("pmem.hash_us_per_image", median(o.hashUS))
	r.set("imgstore.put_us_p50", median(o.putUS))
	r.set("imgstore.get_us_p50", median(o.getUS))
	r.set("imgstore.bytes_per_image", o.bytesPerImage)
}

// setJudgeMetrics reports the judge per-layer metrics over verdicts.
func setJudgeMetrics(r *report, vs []verdict) {
	var oMS, mMS, iMS, xMS, pUS []float64
	var oRec, oChk, oMemo, iRec, iChk, xPost, xPts float64
	for _, v := range vs {
		oMS, mMS, iMS = append(oMS, v.oracleMS), append(mMS, v.mineMS), append(iMS, v.invMS)
		xMS, pUS = append(xMS, v.xfdMS), append(pUS, v.pmcheckUS)
		oRec, oChk, oMemo = oRec+float64(v.oracleRec), oChk+float64(v.oracleChecked), oMemo+float64(v.oracleMemo)
		iRec, iChk = iRec+float64(v.invRec), iChk+float64(v.invChecked)
		xPost, xPts = xPost+float64(v.xfdPosts), xPts+float64(v.xfdPoints)
	}
	r.set("oracle.check_ms_p50", median(oMS))
	r.set("oracle.recoveries_per_state", ratio(oRec, oChk))
	r.set("oracle.memo_hit_ratio", ratio(oMemo, oRec+oMemo))
	r.set("invariant.mine_ms_p50", median(mMS))
	r.set("invariant.check_ms_p50", median(iMS))
	r.set("invariant.recoveries_per_state", ratio(iRec, iChk))
	r.set("xfd.check_ms_p50", median(xMS))
	r.set("xfd.post_runs_per_point", ratio(xPost, xPts))
	r.set("pmcheck.check_us_p50", median(pUS))
}
