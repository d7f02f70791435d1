package instr

import (
	"hash/fnv"
	"math/rand"
	"runtime"
	"strconv"
	"testing"
	"testing/quick"
)

// Dense reference implementations: the byte-by-byte scans of all
// MapSize counters that the sparse hit-list code replaced. They read only
// the counter array, never the hit list, so they check it independently.

// denseClassify is the AFL bucket switch Classify's table encodes.
func denseClassify(v uint8) uint8 {
	switch {
	case v == 0:
		return 0
	case v == 1:
		return 1
	case v == 2:
		return 2
	case v == 3:
		return 4
	case v <= 7:
		return 8
	case v <= 15:
		return 16
	case v <= 31:
		return 32
	case v <= 127:
		return 64
	default:
		return 128
	}
}

// denseMerge is the reference Virgin.Merge.
func denseMerge(v *Virgin, counts *[MapSize]uint8) (hasNewSlot, hasNewBucket bool) {
	for i, raw := range counts {
		if raw == 0 {
			continue
		}
		c := denseClassify(raw)
		old := v.seen[i]
		if old == 0 {
			hasNewSlot = true
		} else if old&c == 0 {
			hasNewBucket = true
		}
		v.seen[i] = old | c
	}
	return hasNewSlot, hasNewBucket
}

// denseSignature is the reference Signature, hashing through hash/fnv.
func denseSignature(counts *[MapSize]uint8) uint64 {
	h := fnv.New64a()
	var buf [3]byte
	for i, v := range counts {
		if v == 0 {
			continue
		}
		buf[0] = byte(i)
		buf[1] = byte(i >> 8)
		buf[2] = denseClassify(v)
		_, _ = h.Write(buf[:])
	}
	return h.Sum64()
}

// peek reports what Merge would return without mutating the virgin state.
func peek(v *Virgin, m *Map) (hasNewSlot, hasNewBucket bool) {
	for i, raw := range m.counts {
		if raw == 0 {
			continue
		}
		c := denseClassify(raw)
		old := v.seen[i]
		if old == 0 {
			hasNewSlot = true
		} else if old&c == 0 {
			hasNewBucket = true
		}
	}
	return hasNewSlot, hasNewBucket
}

// coveredSlots returns the number of distinct slots v has ever observed.
func coveredSlots(v *Virgin) int {
	n := 0
	for _, b := range v.seen {
		if b != 0 {
			n++
		}
	}
	return n
}

// sameCounts reports whether two maps hold identical counters in every
// slot (hit-list order is not part of a map's value).
func sameCounts(a, b *Map) bool { return a.counts == b.counts }

func TestIDStable(t *testing.T) {
	a := ID("btree.insert")
	b := ID("btree.insert")
	if a != b {
		t.Fatalf("ID not stable: %v != %v", a, b)
	}
	if ID("btree.insert") == ID("btree.remove") {
		t.Fatalf("distinct labels collided")
	}
}

func TestCallerSiteDistinct(t *testing.T) {
	a := CallerSite(0)
	b := CallerSite(0)
	if a == b {
		t.Fatalf("distinct call sites returned the same ID")
	}
}

func TestCallerSiteStableAtSameSite(t *testing.T) {
	var ids [2]SiteID
	for i := 0; i < 2; i++ {
		ids[i] = CallerSite(0) // one static call site, executed twice
	}
	if ids[0] != ids[1] {
		t.Fatalf("same call site returned different IDs")
	}
}

func TestMapHitSaturates(t *testing.T) {
	var m Map
	for i := 0; i < 300; i++ {
		m.Hit(42)
	}
	if m.counts[42] != 255 {
		t.Fatalf("counter = %d, want saturation at 255", m.counts[42])
	}
}

func TestMapHitFolds(t *testing.T) {
	var m Map
	m.Hit(MapSize + 7)
	if m.counts[7] != 1 {
		t.Fatalf("out-of-range loc not folded into map")
	}
}

func TestMapCountNonZeroAndReset(t *testing.T) {
	var m Map
	m.Hit(1)
	m.Hit(2)
	m.Hit(2)
	if got := m.CountNonZero(); got != 2 {
		t.Fatalf("CountNonZero = %d, want 2", got)
	}
	m.Reset()
	if got := m.CountNonZero(); got != 0 {
		t.Fatalf("after Reset CountNonZero = %d, want 0", got)
	}
}

func TestClassifyBuckets(t *testing.T) {
	cases := []struct {
		in, want uint8
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 4}, {4, 8}, {7, 8},
		{8, 16}, {15, 16}, {16, 32}, {31, 32}, {32, 64},
		{127, 64}, {128, 128}, {255, 128},
	}
	for _, c := range cases {
		if got := Classify(c.in); got != c.want {
			t.Errorf("Classify(%d) = %d, want %d", c.in, got, c.want)
		}
	}
	for v := 0; v < 256; v++ {
		if got, want := Classify(uint8(v)), denseClassify(uint8(v)); got != want {
			t.Errorf("Classify(%d) = %d, reference %d", v, got, want)
		}
	}
}

func TestTracerAlgorithm1Encoding(t *testing.T) {
	// Algorithm 1: loc = cur ^ prev; counter++; prev = cur >> 1.
	tr := NewTracer()
	tr.PMOp(SiteID(0x10))
	tr.PMOp(SiteID(0x20))
	m := tr.PMMap()
	// First op: loc = 0x10 ^ 0 = 0x10. Second: loc = 0x20 ^ (0x10>>1) = 0x28.
	if m.counts[0x10] != 1 {
		t.Fatalf("first transition slot = %d, want 1", m.counts[0x10])
	}
	if m.counts[0x28] != 1 {
		t.Fatalf("second transition slot = %d, want 1", m.counts[0x28])
	}
	if tr.PMOps() != 2 {
		t.Fatalf("PMOps = %d, want 2", tr.PMOps())
	}
}

func TestTracerDirectionality(t *testing.T) {
	// A->B must hit a different slot than B->A (the >>1 preserves
	// direction, per Algorithm 1 line 6).
	ab := NewTracer()
	ab.PMOp(SiteID(0x100))
	ab.PMOp(SiteID(0x200))
	ba := NewTracer()
	ba.PMOp(SiteID(0x200))
	ba.PMOp(SiteID(0x100))

	if sameCounts(ab.PMMap(), ba.PMMap()) {
		t.Fatalf("A->B and B->A produced identical PM maps")
	}
}

func TestTracerDeterministic(t *testing.T) {
	run := func() *Tracer {
		tr := NewTracer()
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 1000; i++ {
			tr.PMOp(SiteID(rng.Uint32()))
			tr.Branch(SiteID(rng.Uint32()))
		}
		return tr
	}
	a, b := run(), run()
	if !sameCounts(a.PMMap(), b.PMMap()) || !sameCounts(a.BranchMap(), b.BranchMap()) {
		t.Fatalf("identical op sequences produced different maps")
	}
}

func TestTracerReset(t *testing.T) {
	tr := NewTracer()
	tr.PMOp(1)
	tr.Branch(2)
	tr.Reset()
	if tr.PMOps() != 0 || tr.BranchOps() != 0 {
		t.Fatalf("Reset did not clear op counts")
	}
	if tr.PMMap().CountNonZero() != 0 || tr.BranchMap().CountNonZero() != 0 {
		t.Fatalf("Reset did not clear maps")
	}
	// prev state must also reset: a single op should land at slot == id.
	tr.PMOp(SiteID(0x33))
	if tr.PMMap().counts[0x33] != 1 {
		t.Fatalf("prev PM id not reset")
	}
}

func TestVirginMergeNewSlotThenBucket(t *testing.T) {
	v := NewVirgin()
	var m Map
	m.Hit(5)
	newSlot, newBucket := v.Merge(&m)
	if !newSlot || newBucket {
		t.Fatalf("first merge: newSlot=%v newBucket=%v, want true,false", newSlot, newBucket)
	}
	newSlot, newBucket = v.Merge(&m)
	if newSlot || newBucket {
		t.Fatalf("repeat merge: newSlot=%v newBucket=%v, want false,false", newSlot, newBucket)
	}
	// Same slot, higher bucket.
	var m2 Map
	for i := 0; i < 10; i++ {
		m2.Hit(5)
	}
	newSlot, newBucket = v.Merge(&m2)
	if newSlot || !newBucket {
		t.Fatalf("bucket merge: newSlot=%v newBucket=%v, want false,true", newSlot, newBucket)
	}
	if coveredSlots(v) != 1 {
		t.Fatalf("covered slots = %d, want 1", coveredSlots(v))
	}
}

func TestVirginPeekDoesNotMutate(t *testing.T) {
	v := NewVirgin()
	var m Map
	m.Hit(9)
	ns, _ := peek(v, &m)
	if !ns {
		t.Fatalf("peek missed new slot")
	}
	ns, _ = peek(v, &m)
	if !ns {
		t.Fatalf("peek mutated virgin state")
	}
}

func TestVirginPeekMatchesMergeProperty(t *testing.T) {
	// Property: for random maps, peek's answer always equals what Merge
	// then reports, when asked before the merge.
	f := func(locs []uint16) bool {
		v := NewVirgin()
		seedLocs := []uint32{1, 100, 60000}
		var seed Map
		for _, l := range seedLocs {
			seed.Hit(l)
		}
		v.Merge(&seed)
		var m Map
		for _, l := range locs {
			m.Hit(uint32(l))
		}
		pSlot, pBucket := peek(v, &m)
		mSlot, mBucket := v.Merge(&m)
		return pSlot == mSlot && pBucket == mBucket
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestVirginMergeFromShardedEqualsDirect(t *testing.T) {
	// The parallel engine's invariant: merging execution maps into worker
	// shards and folding the shards into a global virgin must leave the
	// global in exactly the state direct merging would have.
	f := func(locsA, locsB []uint16) bool {
		var ma, mb Map
		for _, l := range locsA {
			ma.Hit(uint32(l))
		}
		for _, l := range locsB {
			mb.Hit(uint32(l))
		}
		shardA, shardB := NewVirgin(), NewVirgin()
		shardA.Merge(&ma)
		shardB.Merge(&mb)
		global := NewVirgin()
		global.MergeFrom(shardA)
		global.MergeFrom(shardB)

		direct := NewVirgin()
		direct.Merge(&ma)
		direct.Merge(&mb)
		return *global == *direct
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestVirginMergeFromReportsNovelty(t *testing.T) {
	a, b := NewVirgin(), NewVirgin()
	var m1 Map
	m1.Hit(5)
	a.Merge(&m1)

	var m2 Map
	for i := 0; i < 10; i++ {
		m2.Hit(5) // same slot, higher bucket than a's
	}
	m2.Hit(9) // slot a has never seen
	b.Merge(&m2)

	newSlot, newBucket := a.MergeFrom(b)
	if !newSlot || !newBucket {
		t.Fatalf("MergeFrom: newSlot=%v newBucket=%v, want true,true", newSlot, newBucket)
	}
	if coveredSlots(a) != 2 || a.CoveredStates() != 3 {
		t.Fatalf("after merge: slots=%d states=%d, want 2/3", coveredSlots(a), a.CoveredStates())
	}
	// Re-merging the same shard must report nothing new.
	newSlot, newBucket = a.MergeFrom(b)
	if newSlot || newBucket {
		t.Fatalf("repeat MergeFrom: newSlot=%v newBucket=%v, want false,false", newSlot, newBucket)
	}
	// An empty shard is a no-op.
	if ns, nb := a.MergeFrom(NewVirgin()); ns || nb {
		t.Fatalf("empty MergeFrom reported novelty")
	}
}

func TestCallerSiteLocationBased(t *testing.T) {
	// Site IDs must be derived from source location, not raw PCs: for a
	// non-inlined call site the ID equals the hash of its file:line
	// label, so trajectories survive code growth elsewhere in the binary.
	a := CallerSite(0)
	want := ID("instr_test.go:" + strconv.Itoa(callerLine()-1))
	if a != want {
		t.Fatalf("CallerSite = %v, want location hash %v", a, want)
	}
}

// callerLine returns the line number of its call site.
func callerLine() int {
	_, _, line, _ := runtime.Caller(1)
	return line
}

func TestSignatureIdentity(t *testing.T) {
	// Same classified contents -> same signature; different slots or
	// different buckets -> different signatures.
	mk := func(hits map[uint32]int) *Map {
		var m Map
		for loc, n := range hits {
			for i := 0; i < n; i++ {
				m.Hit(loc)
			}
		}
		return &m
	}
	a := Signature(mk(map[uint32]int{1: 1, 2: 3}))
	b := Signature(mk(map[uint32]int{1: 1, 2: 3}))
	if a != b {
		t.Fatalf("identical maps signed differently")
	}
	// 3 and 4 hits fall into different buckets (4 vs 8).
	if c := Signature(mk(map[uint32]int{1: 1, 2: 4})); c == a {
		t.Fatalf("different bucket signed identically")
	}
	if d := Signature(mk(map[uint32]int{1: 1, 3: 3})); d == a {
		t.Fatalf("different slot signed identically")
	}
	// Hits within the same bucket share a signature (paths are bucketed).
	if e := Signature(mk(map[uint32]int{1: 1, 2: 2})); e == a {
		t.Fatalf("bucket 2 vs bucket 4 signed identically")
	}
	if f := Signature(mk(map[uint32]int{1: 1, 2: 5})); f != Signature(mk(map[uint32]int{1: 1, 2: 7})) {
		t.Fatalf("same-bucket counts signed differently")
	}
}

func TestCoveredStates(t *testing.T) {
	v := NewVirgin()
	var m Map
	m.Hit(1) // bucket 1
	v.Merge(&m)
	if got := v.CoveredStates(); got != 1 {
		t.Fatalf("CoveredStates = %d, want 1", got)
	}
	var m2 Map
	for i := 0; i < 5; i++ {
		m2.Hit(1) // bucket 8: second state for slot 1
	}
	m2.Hit(2) // new slot
	v.Merge(&m2)
	if got := v.CoveredStates(); got != 3 {
		t.Fatalf("CoveredStates = %d, want 3", got)
	}
	if got := coveredSlots(v); got != 2 {
		t.Fatalf("covered slots = %d, want 2", got)
	}
}

// TestSparseMapMatchesDense drives one reused Map and one pair of
// virgins through random executions and checks every hit-list result
// against the dense reference scans: Merge novelty flags and virgin
// bytes, Signature, CountNonZero and the hit list itself. Executions mix
// hot slots that saturate past 255, locations that XOR-fold onto the
// same slot, and plain random slots; the Map is Reset between them.
func TestSparseMapMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var m Map
	sparse, dense := NewVirgin(), NewVirgin()
	for round := 0; round < 300; round++ {
		m.Reset()
		var ref [MapSize]uint8
		hit := func(loc uint32) {
			m.Hit(loc)
			if i := loc % MapSize; ref[i] != 0xff {
				ref[i]++
			}
		}
		// Hot slots: some saturate, some stop in mid buckets.
		for k := rng.Intn(4); k > 0; k-- {
			loc := uint32(rng.Intn(64))
			for n := rng.Intn(400); n > 0; n-- {
				hit(loc)
			}
		}
		// Folded collisions: distinct locations, one slot.
		for k := rng.Intn(4); k > 0; k-- {
			base := uint32(rng.Intn(MapSize))
			for n := rng.Intn(5); n >= 0; n-- {
				hit(base + uint32(rng.Intn(1<<8))<<16)
			}
		}
		// Tracer-style XOR-encoded transitions over a small site set.
		prev := uint32(0)
		for k := rng.Intn(60); k > 0; k-- {
			cur := uint32(rng.Intn(32)) * 2654435761
			hit(cur ^ prev)
			prev = cur >> 1
		}

		if m.counts != ref {
			t.Fatalf("round %d: counters diverged from reference", round)
		}
		nonZero := 0
		for _, c := range ref {
			if c != 0 {
				nonZero++
			}
		}
		if got := m.CountNonZero(); got != nonZero {
			t.Fatalf("round %d: CountNonZero = %d, want %d", round, got, nonZero)
		}
		listed := map[uint16]bool{}
		for _, i := range m.hits {
			if listed[i] || ref[i] == 0 {
				t.Fatalf("round %d: hit list holds slot %d twice or unhit", round, i)
			}
			listed[i] = true
		}
		if got, want := Signature(&m), denseSignature(&ref); got != want {
			t.Fatalf("round %d: Signature = %x, want %x", round, got, want)
		}
		// Signature sorted the list; merging afterwards must not care.
		sSlot, sBucket := sparse.Merge(&m)
		dSlot, dBucket := denseMerge(dense, &ref)
		if sSlot != dSlot || sBucket != dBucket {
			t.Fatalf("round %d: Merge = %v,%v, want %v,%v", round, sSlot, sBucket, dSlot, dBucket)
		}
		if *sparse != *dense {
			t.Fatalf("round %d: virgin bytes diverged from reference", round)
		}
		if got, want := Signature(&m), denseSignature(&ref); got != want {
			t.Fatalf("round %d: repeated Signature = %x, want %x", round, got, want)
		}
	}
	m.Reset()
	var zero [MapSize]uint8
	if m.counts != zero || m.CountNonZero() != 0 {
		t.Fatalf("Reset left counters behind")
	}
	if got, want := Signature(&m), denseSignature(&zero); got != want {
		t.Fatalf("empty Signature = %x, want %x", got, want)
	}
}

func TestMapCloneIndependent(t *testing.T) {
	var m Map
	m.Hit(3)
	m.Hit(3)
	m.Hit(70)
	c := m.Clone()
	m.Reset()
	m.Hit(9)
	if c.counts[3] != 2 || c.counts[70] != 1 || c.counts[9] != 0 || c.CountNonZero() != 2 {
		t.Fatalf("clone changed with its source: %d %d %d n=%d", c.counts[3], c.counts[70], c.counts[9], c.CountNonZero())
	}
	if c.Counter(3) != 2 || c.Counter(3+MapSize) != 2 {
		t.Fatalf("Counter did not read the folded slot")
	}
}
