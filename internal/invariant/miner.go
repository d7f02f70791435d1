package invariant

import (
	"pmfuzz/internal/pmem"
	"pmfuzz/internal/trace"
)

// Miner accumulates per-observation evidence for candidate invariants.
// An observation is one clean execution: its PM-op trace (ordering and
// atomicity evidence) plus its final at-rest image (value evidence).
// Evidence merging is commutative — a candidate survives iff it was
// seen in at least one observation and refuted in none, and a value
// range survives iff every observed at-rest image agrees on its bytes
// — so the mined set is independent of observation order
// (FuzzMinerTrace pins this).
type Miner struct {
	workload string

	orderSeen map[uint64]int // ordered site pair -> observations seen
	orderBad  map[uint64]bool
	atomSeen  map[uint64]int // canonical (min,max) pair -> observations seen
	atomBad   map[uint64]bool

	// Value evidence: candidate ranges come from observed stores, but a
	// range is judged against EVERY observation's at-rest image — an
	// image from an execution that never wrote the range still refutes
	// it if its bytes differ. ref holds one observed image; unstable
	// marks bytes on which some pair of observed images disagreed; both
	// are order-independent summaries of the image set.
	valSeen  map[valKey]int // range -> observations whose trace stored it
	ref      *pmem.Image
	unstable []bool
	imgLen   int // agreement window: min image length across observations
}

// valKey identifies a value candidate: one store site's byte range.
type valKey struct {
	site     uint32
	off, len int
}

// NewMiner returns an empty miner for one workload.
func NewMiner(workload string) *Miner {
	return &Miner{
		workload:  workload,
		orderSeen: map[uint64]int{},
		orderBad:  map[uint64]bool{},
		atomSeen:  map[uint64]int{},
		atomBad:   map[uint64]bool{},
		valSeen:   map[valKey]int{},
		imgLen:    -1,
	}
}

// Workload returns the workload the miner was created for.
func (m *Miner) Workload() string { return m.workload }

// Observe folds one clean execution into the evidence: events is its
// full PM-op trace, final the at-rest image after Close (nil skips
// value mining for this observation).
func (m *Miner) Observe(events []trace.Event, final *pmem.Image) {
	m.observeAnalysis(analyze(events), final)
}

// observeAnalysis merges one analyzed execution. Pair evidence is
// collected into per-observation verdict maps first, then folded into
// the cumulative counters, so one observation contributes at most one
// seen-count per pair regardless of how often the pair recurs.
func (m *Miner) observeAnalysis(an *analysis, final *pmem.Image) {
	orderOK := map[uint64]bool{}
	atomOK := map[uint64]bool{}
	seenVal := map[valKey]bool{}
	last := map[uint32]int{} // site -> index of its latest store
	for i := range an.stores {
		x := &an.stores[i]
		if x.internal {
			continue
		}
		for site, j := range last {
			if site == x.site {
				continue
			}
			y := &an.stores[j]
			// Ordering: the last y-site store before this x-site store
			// must persist no later than it.
			ok := pairKey(site, x.site)
			if v, seen := orderOK[ok]; !seen || v {
				orderOK[ok] = y.persistB <= x.persistB
			}
			// Atomicity: adjacent cross-site stores persist together
			// (two never-persisted stores are no evidence either way,
			// so they refute — better to miss a rule than to guess).
			lo, hi := site, x.site
			if lo > hi {
				lo, hi = hi, lo
			}
			ak := pairKey(lo, hi)
			if v, seen := atomOK[ak]; !seen || v {
				atomOK[ak] = y.persistB == x.persistB && y.persistB != persistNever
			}
		}
		last[x.site] = i

		if final != nil && x.len > 0 && x.len <= maxValueLen &&
			x.off >= 0 && x.off+x.len <= final.Size() {
			seenVal[valKey{site: x.site, off: x.off, len: x.len}] = true
		}
	}
	for k, ok := range orderOK {
		m.orderSeen[k]++
		if !ok {
			m.orderBad[k] = true
		}
	}
	for k, ok := range atomOK {
		m.atomSeen[k]++
		if !ok {
			m.atomBad[k] = true
		}
	}
	for k := range seenVal {
		m.valSeen[k]++
	}
	m.mergeImage(final)
}

// mergeImage folds one at-rest image into the byte-agreement summary,
// comparing only the pages it does not share with the reference image.
func (m *Miner) mergeImage(final *pmem.Image) {
	if final == nil {
		return
	}
	if m.ref == nil {
		m.ref = final
		m.unstable = make([]bool, final.Size())
		m.imgLen = final.Size()
		return
	}
	m.imgLen = min(m.imgLen, final.Size())
	for p := 0; p*pmem.PageSize < m.imgLen; p++ {
		if final.SharesPage(m.ref, p) {
			continue
		}
		a, b, off := m.ref.Page(p), final.Page(p), p*pmem.PageSize
		for i := range min(len(a), len(b), m.imgLen-off) {
			if a[i] != b[i] {
				m.unstable[off+i] = true
			}
		}
	}
}

// Mine extracts the surviving candidates as a canonical Set: pairs and
// ranges seen at least once and refuted never, with Order pairs
// subsumed by Atomic pairs dropped during canonicalization.
func (m *Miner) Mine() *Set {
	s := &Set{Workload: m.workload}
	for k, n := range m.orderSeen {
		if m.orderBad[k] {
			continue
		}
		s.Invs = append(s.Invs, &Invariant{
			Kind: Order, A: uint32(k >> 32), B: uint32(k), Support: n,
		})
	}
	for k, n := range m.atomSeen {
		if m.atomBad[k] {
			continue
		}
		s.Invs = append(s.Invs, &Invariant{
			Kind: Atomic, A: uint32(k >> 32), B: uint32(k), Support: n,
		})
	}
cand:
	for k, n := range m.valSeen {
		if k.off+k.len > m.imgLen {
			continue
		}
		for i := k.off; i < k.off+k.len; i++ {
			if m.unstable[i] {
				continue cand
			}
		}
		s.Invs = append(s.Invs, &Invariant{
			Kind: Value, A: k.site, Off: k.off, Len: k.len,
			Data: readRange(nil, m.ref, k.off, k.len), Support: n,
		})
	}
	s.Canonicalize()
	return s
}
