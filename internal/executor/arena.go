package executor

import (
	"math/rand"

	"pmfuzz/internal/instr"
	"pmfuzz/internal/pmem"
	"pmfuzz/internal/trace"
)

// Arena is the per-worker execution reuse handle — the persistent-mode /
// forkserver analog. A fuzzing worker that owns an Arena and passes it in
// Options runs every execution on ONE resident device (persisted and
// volatile buffers, line-state arrays, barrier-op slice) reset in place
// per run, draws coverage tracers and trace recorders from free lists,
// and restarts one workload RNG per run. Output and crash images need no
// pool: they share every page the run did not change with its start
// image, so producing one allocates only the changed pages.
//
// An Arena is not safe for concurrent use: it belongs to exactly one
// worker goroutine, like an AFL++ instance owns its target process.
//
// Aliasing contract: when a run used an Arena, the Result fields that
// alias device or pooled state — Tracer, Trace, BarrierOps, CommitVars —
// are valid only until the next run on the same Arena. Callers that
// retain them across runs must copy (or simply not call Recycle and let
// the tracer go to the garbage collector, as the parallel workers do for
// shipped coverage maps). Result.Image is exempt: images are immutable,
// so an output or crash image stays valid for as long as it is held.
type Arena struct {
	dev     *pmem.Device
	tracers []*instr.Tracer
	recs    []*trace.Recorder
	src     lazySource
	rand    *rand.Rand
}

// Pool caps keep a pathological caller from growing an arena without
// bound; steady-state fuzzing needs one tracer in flight.
const (
	arenaMaxTracers = 4
	arenaMaxRecs    = 4
)

// NewArena returns an empty arena; the device and pools are populated
// lazily by the first execution.
func NewArena() *Arena { return &Arena{} }

// device returns the resident device reset onto img (or zeroed to size
// when img is nil), creating it on first use. Devices resize themselves
// when the workload's pool size differs from the previous run's.
func (a *Arena) device(img *pmem.Image, size int) *pmem.Device {
	switch {
	case a.dev == nil:
		if img != nil {
			a.dev = pmem.NewDeviceFromImage(img)
		} else {
			a.dev = pmem.NewDevice(size)
		}
	case img != nil:
		a.dev.Reset(img)
	default:
		a.dev.ResetEmpty(size)
	}
	return a.dev
}

// tracer pops a reset tracer from the free list or allocates one.
func (a *Arena) tracer() *instr.Tracer {
	if n := len(a.tracers); n > 0 {
		t := a.tracers[n-1]
		a.tracers = a.tracers[:n-1]
		t.Reset()
		return t
	}
	return instr.NewTracer()
}

// rng returns the arena's workload RNG restarted at seed. Its source
// seeds on first draw and reuses its generator across runs.
func (a *Arena) rng(seed int64) *rand.Rand {
	if a.rand == nil {
		a.rand = rand.New(&a.src)
	}
	a.rand.Seed(seed)
	return a.rand
}

// recorder pops a reset trace recorder from the free list or allocates
// one.
func (a *Arena) recorder() *trace.Recorder {
	if n := len(a.recs); n > 0 {
		r := a.recs[n-1]
		a.recs = a.recs[:n-1]
		r.Reset()
		return r
	}
	return trace.NewRecorder()
}

// Recycle returns a finished Result's pooled observation state (coverage
// tracer, trace recorder) to the arena. Call it only when the tracer's
// maps are no longer referenced — a worker that shipped the maps to the
// coordinator must NOT recycle that result. The fields are nilled so a
// stale read fails loudly instead of observing a later execution.
func (a *Arena) Recycle(res *Result) {
	if res == nil {
		return
	}
	if res.Tracer != nil && len(a.tracers) < arenaMaxTracers {
		a.tracers = append(a.tracers, res.Tracer)
		res.Tracer = nil
	}
	if res.Trace != nil && len(a.recs) < arenaMaxRecs {
		a.recs = append(a.recs, res.Trace)
		res.Trace = nil
	}
}

// RecycleImage does nothing. Images are immutable page vectors shared
// copy-on-write, so there is no buffer to hand back; the method stays
// for callers written against the earlier snapshot-buffer pool.
func (a *Arena) RecycleImage(*pmem.Image) {}
