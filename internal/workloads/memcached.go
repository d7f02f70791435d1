package workloads

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"pmfuzz/internal/instr"
	"pmfuzz/internal/pmem"
	"pmfuzz/internal/workloads/bugs"
)

// Memcached is the PM-Memcached analog: unlike the other workloads it is
// built directly on the low-level device API (the libpmem layer), the way
// Lenovo's memcached-pmem uses pmem_map_file/pmem_persist. Items live in
// pslab pools — fixed arrays of cache-line-sized slots — created by
// pslab_create, the function hosting the paper's Bug 7 (two redundant
// flushes before the whole-pool flush, pslab.c:317). A volatile hash
// index over the slots is rebuilt by scanning at startup.
//
// Commands: set <key> <val> | get <key> | del <key> | c | q
//
// On-device layout:
//
//	header (256B): magic @0, valid @8, nslots @16, count @64,
//	               dirty @128, opstamp @192
//	slots @256: nslots * 128B items: used @0, key @64, val @72
const (
	mcMagic  = "PSLABMC1"
	mcValid  = 8
	mcNSlots = 16
	// The commit fields live on separate cache lines (a skipped persist
	// of one must not be masked by the writeback of a neighbour).
	mcCount   = 64
	mcDirty   = 128
	mcOpstamp = 192
	mcHeader  = 256

	// Each slot spans two lines: the used commit word on the first, the
	// item payload on the second.
	mcSlotUsed = 0
	mcSlotKey  = 64
	mcSlotVal  = 72
	mcSlotLen  = 128

	mcDefaultSlots = 1024
)

var (
	mcSiteCreate  = instr.ID("memcached.pslab_create")
	mcSiteSet     = instr.ID("memcached.set")
	mcSiteUpdate  = instr.ID("memcached.update")
	mcSiteDel     = instr.ID("memcached.del")
	mcSiteGetHit  = instr.ID("memcached.get.hit")
	mcSiteGetMiss = instr.ID("memcached.get.miss")
	mcSiteScan    = instr.ID("memcached.scan")
	mcSiteCheck   = instr.ID("memcached.check")
	mcSiteFull    = instr.ID("memcached.full")
)

func init() { Register("memcached", func() Program { return &Memcached{} }) }

// Memcached is the workload instance.
type Memcached struct {
	dev *pmem.Device
	// Volatile indexes rebuilt by scanning the slots at startup.
	index map[uint64]int // key -> slot
	free  []int          // free slot list, descending
	// stamp is the volatile counter behind the persistent op stamp.
	stamp uint64
}

// Name implements Program.
func (m *Memcached) Name() string { return "memcached" }

// PoolSize implements Program.
func (m *Memcached) PoolSize() int { return mcHeader + mcDefaultSlots*mcSlotLen }

// SeedInputs implements Program.
func (m *Memcached) SeedInputs() [][]byte {
	return [][]byte{
		[]byte("set 1 100\nset 2 200\nget 1\nc\n"),
		[]byte("set 3 30\nset 3 31\ndel 3\nget 3\nc\n"),
		[]byte("set 7 1\nset 8 2\nset 9 3\ndel 8\nget 9\nc\nq\n"),
	}
}

// SynPoints implements Program: 17 points (Table 3).
func (m *Memcached) SynPoints() []bugs.Point {
	return []bugs.Point{
		{ID: 1, Kind: bugs.RedundantFlush, Site: "memcached.go:create double header persist"},
		{ID: 2, Kind: bugs.SkipFence, Site: "memcached.go:create valid fence"},
		{ID: 3, Kind: bugs.WrongCommitValue, Site: "memcached.go:create valid value"},
		{ID: 4, Kind: bugs.RedundantFlush, Site: "memcached.go:create extra slab flush"},
		{ID: 5, Kind: bugs.SkipFlush, Site: "memcached.go:set item fields persist"},
		{ID: 6, Kind: bugs.SkipFence, Site: "memcached.go:set path fences removed"},
		{ID: 7, Kind: bugs.ReorderWrites, Site: "memcached.go:set used before fields durable"},
		{ID: 8, Kind: bugs.SkipFlush, Site: "memcached.go:set used commit persist"},
		{ID: 9, Kind: bugs.WrongCommitValue, Site: "memcached.go:count value"},
		{ID: 10, Kind: bugs.SkipFlush, Site: "memcached.go:count persist"},
		{ID: 11, Kind: bugs.SkipFlush, Site: "memcached.go:dirty clear persist"},
		{ID: 12, Kind: bugs.WrongCommitValue, Site: "memcached.go:dirty set value"},
		{ID: 13, Kind: bugs.SkipFlush, Site: "memcached.go:del used clear persist"},
		{ID: 14, Kind: bugs.ReorderWrites, Site: "memcached.go:del count before unlink"},
		{ID: 15, Kind: bugs.RedundantFlush, Site: "memcached.go:set item double persist"},
		{ID: 16, Kind: bugs.SkipFlush, Site: "memcached.go:opstamp persist"},
		{ID: 17, Kind: bugs.RedundantFlush, Site: "memcached.go:opstamp double persist"},
	}
}

// --- low-level libpmem-style helpers ---

func (m *Memcached) st64(off int, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	m.dev.Store(off, b[:], instr.CallerSite(1))
}

func (m *Memcached) ld64(off int) uint64 {
	var b [8]byte
	m.dev.Load(off, b[:], instr.CallerSite(1))
	return binary.LittleEndian.Uint64(b[:])
}

// persist is pmem_persist: flush + drain.
func (m *Memcached) persist(off, n int) {
	site := instr.CallerSite(1)
	m.dev.Flush(off, n, site)
	m.dev.Fence(site)
}

// flushOnly is pmem_flush without the drain.
func (m *Memcached) flushOnly(off, n int) {
	m.dev.Flush(off, n, instr.CallerSite(1))
}

// memsetNodrain is pmem_memset_nodrain: store + flush, no fence.
func (m *Memcached) memsetNodrain(off, n int, v byte) {
	site := instr.CallerSite(1)
	buf := bytes.Repeat([]byte{v}, n)
	m.dev.Store(off, buf, site)
	m.dev.Flush(off, n, site)
}

// Setup implements Program: validate the pslab pool or create it.
func (m *Memcached) Setup(env *Env) error {
	m.dev = env.Dev
	m.annotateCommitVars()
	magic := make([]byte, 8)
	m.dev.Load(0, magic, instr.CallerSite(0))
	if string(magic) == mcMagic && m.ld64(mcValid) == 1 {
		m.scan(env)
		return nil
	}
	return m.pslabCreate(env)
}

// annotateCommitVars registers the pool's commit variables with the
// device — the analog of annotating the source for XFDetector: the
// valid bit, the dirty flag, and each slot's used word are atomically
// published, and recovery reading their old durable value is by design.
func (m *Memcached) annotateCommitVars() {
	m.dev.MarkCommitVar(0, 24) // magic + valid + nslots: validated on open
	m.dev.MarkCommitVar(mcDirty, 8)
	nslots := (m.dev.Size() - mcHeader) / mcSlotLen
	for s := 0; s < nslots; s++ {
		m.dev.MarkCommitVar(mcHeader+s*mcSlotLen+mcSlotUsed, 8)
	}
}

// pslabCreate formats the slab pool — the Figure 15a code. The real
// memcached behaviour (Bug 7) issues per-slab flushes that the final
// whole-pool flush makes redundant; the fixed version zeroes with plain
// stores and persists once.
func (m *Memcached) pslabCreate(env *Env) error {
	env.Branch(mcSiteCreate)
	size := m.dev.Size()
	nslots := (size - mcHeader) / mcSlotLen
	if nslots <= 0 {
		return fmt.Errorf("memcached: device too small (%d bytes)", size)
	}
	m.dev.Store(0, []byte(mcMagic), instr.CallerSite(0))
	m.st64(mcValid, 0)
	m.st64(mcNSlots, uint64(nslots))
	m.st64(mcCount, 0)
	m.st64(mcDirty, 0)
	m.st64(mcOpstamp, 0)
	m.persist(0, mcHeader)
	if env.Bugs.Syn(1) {
		m.persist(0, mcHeader) // redundant second header persist
	}
	// Zero the slab area (PSLAB_WALK of Figure 15a).
	for s := 0; s < nslots; s++ {
		off := mcHeader + s*mcSlotLen
		if env.Bugs.Real(bugs.Bug7MemcachedRedundantFlush) || env.Bugs.Syn(4) {
			// Bug 7: pmem_memset_nodrain flushes each slab even though
			// pmem_persist below flushes the whole pool.
			m.memsetNodrain(off, mcSlotLen, 0)
		} else {
			m.dev.Store(off, make([]byte, mcSlotLen), instr.CallerSite(0))
		}
	}
	// Flush the whole pool, then commit with the valid bit.
	m.persist(0, size)
	valid := uint64(1)
	if env.Bugs.Syn(3) {
		valid = 2 // semantically wrong commit value
	}
	m.st64(mcValid, valid)
	if env.Bugs.Syn(2) {
		m.flushOnly(mcValid, 8)
	} else {
		m.persist(mcValid, 8)
	}
	m.index = map[uint64]int{}
	m.free = make([]int, 0, nslots)
	for s := nslots - 1; s >= 0; s-- {
		m.free = append(m.free, s)
	}
	return nil
}

// scan rebuilds the volatile indexes from the persistent slots and
// repairs an interrupted count update (dirty flag left set by a failure).
func (m *Memcached) scan(env *Env) {
	env.Branch(mcSiteScan)
	nslots := int(m.ld64(mcNSlots))
	m.index = map[uint64]int{}
	m.free = nil
	used := uint64(0)
	for s := nslots - 1; s >= 0; s-- {
		off := mcHeader + s*mcSlotLen
		if m.ld64(off+mcSlotUsed) == 1 {
			m.index[m.ld64(off+mcSlotKey)] = s
			used++
		} else {
			m.free = append(m.free, s)
		}
	}
	if m.ld64(mcDirty) != 0 {
		// A failure interrupted a count update: the scan just recounted,
		// so repair the count and close the dirty window.
		m.st64(mcCount, used)
		m.persist(mcCount, 8)
		m.st64(mcDirty, 0)
		m.persist(mcDirty, 8)
	}
}

// stampOp advances the persistent operation stamp after each mutation.
func (m *Memcached) stampOp(env *Env) {
	m.stamp++
	m.st64(mcOpstamp, m.stamp)
	if env.Bugs.Syn(16) {
		return
	}
	m.persist(mcOpstamp, 8)
	if env.Bugs.Syn(17) {
		m.persist(mcOpstamp, 8) // redundant
	}
}

// Exec implements Program.
func (m *Memcached) Exec(env *Env, line []byte) error {
	fields, n := splitFields(line)
	if n == 0 {
		return nil
	}
	switch string(fields[0]) {
	case "set":
		if n < 3 {
			return nil
		}
		k, err1 := parseU64(fields[1])
		v, err2 := parseU64(fields[2])
		if err1 != nil || err2 != nil {
			return nil
		}
		m.set(env, k, v)
		return nil
	case "get":
		if n < 2 {
			return nil
		}
		if k, err := parseU64(fields[1]); err == nil {
			m.Lookup(env, k)
		}
		return nil
	case "del":
		if n < 2 {
			return nil
		}
		if k, err := parseU64(fields[1]); err == nil {
			m.del(env, k)
		}
		return nil
	case "c":
		return m.check(env)
	case "q":
		return ErrStop
	}
	return nil
}

// Close implements Program.
func (m *Memcached) Close(env *Env) *pmem.Image {
	return m.dev.Close([16]byte{}, "memcached")
}

func (m *Memcached) slotOff(s int) int { return mcHeader + s*mcSlotLen }

func (m *Memcached) set(env *Env, key, val uint64) {
	env.Branch(mcSiteSet)
	if s, ok := m.index[key]; ok {
		env.Branch(mcSiteUpdate)
		off := m.slotOff(s)
		m.st64(off+mcSlotVal, val)
		m.persist(off+mcSlotVal, 8)
		return
	}
	if len(m.free) == 0 {
		env.Branch(mcSiteFull)
		return // cache full: real memcached would evict; we drop
	}
	s := m.free[len(m.free)-1]
	m.free = m.free[:len(m.free)-1]
	off := m.slotOff(s)

	// Syn 6 removes the ordering fences from the set path: every persist
	// degrades to a bare flush until the final dirty clear.
	weak := env.Bugs.Syn(6)
	persistMaybe := func(o, n int) {
		if weak {
			m.flushOnly(o, n)
		} else {
			m.persist(o, n)
		}
	}
	writeFields := func() {
		m.st64(off+mcSlotKey, key)
		m.st64(off+mcSlotVal, val)
		if !env.Bugs.Syn(5) {
			persistMaybe(off+mcSlotKey, 16)
		}
		if env.Bugs.Syn(15) {
			m.persist(off+mcSlotKey, 16) // redundant
		}
	}
	commitUsed := func() {
		m.st64(off+mcSlotUsed, 1)
		if !env.Bugs.Syn(8) {
			persistMaybe(off+mcSlotUsed, 8)
		}
	}
	// The dirty window must open before the slot is published: a crash
	// between the publish and the count update is only repairable if the
	// startup scan knows to recount.
	if env.Bugs.Syn(7) {
		// ReorderWrites: publish the slot before its fields are durable.
		m.openDirty(env)
		commitUsed()
		writeFields()
	} else {
		writeFields()
		m.openDirty(env)
		commitUsed()
	}
	m.bumpCount(env, 1)
	m.index[key] = s
	m.stampOp(env)
}

// openDirty raises the dirty flag ahead of a slot publish + count update.
func (m *Memcached) openDirty(env *Env) {
	dirty := uint64(1)
	if env.Bugs.Syn(12) {
		dirty = 0
	}
	m.st64(mcDirty, dirty)
	if env.Bugs.Syn(6) {
		m.flushOnly(mcDirty, 8) // syn 6: fences removed from the set path
	} else {
		m.persist(mcDirty, 8)
	}
}

func (m *Memcached) del(env *Env, key uint64) {
	env.Branch(mcSiteDel)
	s, ok := m.index[key]
	if !ok {
		return
	}
	off := m.slotOff(s)
	m.openDirty(env)
	if env.Bugs.Syn(14) {
		// ReorderWrites: the count settles and the window closes before
		// the slot is actually released.
		m.bumpCount(env, ^uint64(0))
		m.st64(off+mcSlotUsed, 0)
		if !env.Bugs.Syn(13) {
			m.persist(off+mcSlotUsed, 8)
		}
	} else {
		m.st64(off+mcSlotUsed, 0)
		if !env.Bugs.Syn(13) {
			m.persist(off+mcSlotUsed, 8)
		}
		m.bumpCount(env, ^uint64(0))
	}
	delete(m.index, key)
	m.free = append(m.free, s)
	m.stampOp(env)
}

// bumpCount updates the item count and closes the dirty window opened by
// openDirty.
func (m *Memcached) bumpCount(env *Env, delta uint64) {
	v := m.ld64(mcCount) + delta
	if env.Bugs.Syn(9) {
		v++
	}
	m.st64(mcCount, v)
	if !env.Bugs.Syn(10) {
		m.persist(mcCount, 8)
	}
	m.st64(mcDirty, 0)
	if !env.Bugs.Syn(11) {
		m.persist(mcDirty, 8)
	}
}

// Lookup exposes the read path for verification harnesses.
func (m *Memcached) Lookup(env *Env, key uint64) (uint64, bool) {
	s, ok := m.index[key]
	if !ok {
		env.Branch(mcSiteGetMiss)
		return 0, false
	}
	env.Branch(mcSiteGetHit)
	return m.ld64(m.slotOff(s) + mcSlotVal), true
}

// check validates the slot array against the count, dirty flag, and
// volatile index. A dirty flag observed set here means a crashed count
// update was never repaired (the pool has no auto-recovery; the scan at
// startup fixes the count implicitly by recounting used slots — but only
// the count field mismatch is observable).
func (m *Memcached) check(env *Env) error {
	env.Branch(mcSiteCheck)
	if m.ld64(mcValid) != 1 {
		return fmt.Errorf("%w: memcached pool valid flag %d", ErrInconsistent, m.ld64(mcValid))
	}
	if m.ld64(mcDirty) != 0 {
		return fmt.Errorf("%w: memcached dirty flag set outside an update", ErrInconsistent)
	}
	nslots := int(m.ld64(mcNSlots))
	used := uint64(0)
	for s := 0; s < nslots; s++ {
		off := m.slotOff(s)
		u := m.ld64(off + mcSlotUsed)
		if u != 0 && u != 1 {
			return fmt.Errorf("%w: memcached slot %d has used=%d", ErrInconsistent, s, u)
		}
		if u == 1 {
			used++
			key := m.ld64(off + mcSlotKey)
			if got, ok := m.index[key]; !ok || got != s {
				return fmt.Errorf("%w: memcached index out of sync for key %d", ErrInconsistent, key)
			}
		}
	}
	if count := m.ld64(mcCount); count != used {
		return fmt.Errorf("%w: memcached count %d != used slots %d", ErrInconsistent, count, used)
	}
	if uint64(len(m.index)) != used {
		return fmt.Errorf("%w: memcached volatile index size %d != %d", ErrInconsistent, len(m.index), used)
	}
	return nil
}
