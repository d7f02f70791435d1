// Package pmemobj is a Go analog of Intel PMDK's libpmemobj (and the
// low-level libpmem API) built on the simulated PM device. It provides
// pools with a named layout and root object, a persistent heap allocator,
// undo-log transactions with PMDK's logged-range-tree semantics, and the
// persist/flush primitives the paper's workloads are written against.
//
// Every entry point records a PM operation with the *caller's* call site
// as its static ID — the analog of the paper's compiler pass that inserts
// a tracking function before each PM-library call site (§4.2).
package pmemobj

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"

	"pmfuzz/internal/instr"
	"pmfuzz/internal/pmem"
	"pmfuzz/internal/trace"
)

// Layout constants for the on-image pool format.
const (
	poolMagic = "PMOBJPL1"

	offMagic   = 0x00 // 8 bytes
	offUUID    = 0x08 // 16 bytes
	offLayout  = 0x18 // 32 bytes, zero padded
	offSize    = 0x38 // 8 bytes
	offRoot    = 0x40 // 8 bytes: root object offset (0 = unset)
	offRootLen = 0x48 // 8 bytes
	offHeap    = 0x50 // 8 bytes: heap start
	offLogOff  = 0x58 // 8 bytes: undo-log arena start
	offLogCap  = 0x60 // 8 bytes: undo-log arena capacity

	headerSize = 0x100

	layoutMax = 32

	// DefaultLogCap is the default undo-log arena capacity.
	DefaultLogCap = 64 * 1024
)

// OidNull is the null persistent object handle.
const OidNull = Oid(0)

// Oid is a persistent object handle: the device offset of the object's
// user data. It is the analog of PMDK's PMEMoid (the pool UUID component
// is implicit, as each Device maps exactly one pool).
type Oid uint64

// IsNull reports whether the handle is null.
func (o Oid) IsNull() bool { return o == 0 }

// Common pool errors.
var (
	ErrBadPool      = errors.New("pmemobj: invalid pool")
	ErrWrongLayout  = errors.New("pmemobj: layout mismatch")
	ErrNoSpace      = errors.New("pmemobj: out of persistent memory")
	ErrNullOid      = errors.New("pmemobj: null object dereference")
	ErrNoTx         = errors.New("pmemobj: operation outside transaction")
	ErrLogFull      = errors.New("pmemobj: undo log arena full")
	ErrTooSmall     = errors.New("pmemobj: pool size too small")
	ErrLayoutTooBig = errors.New("pmemobj: layout name too long")
)

// Options configures pool creation and opening.
type Options struct {
	// Derandomize forces the constant UUID of §4.4(1) so identical inputs
	// produce byte-identical images.
	Derandomize bool
	// UUIDSeed seeds UUID generation when Derandomize is false.
	UUIDSeed int64
	// LogCap overrides the undo-log arena capacity (0 = DefaultLogCap).
	LogCap int
}

// constUUID is the fixed UUID written under derandomization.
var constUUID = [16]byte{
	0xde, 0xad, 0xbe, 0xef, 0x00, 0x01, 0x02, 0x03,
	0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b,
}

// Pool is an open libpmemobj-analog pool over a simulated device.
type Pool struct {
	dev    *pmem.Device
	layout string
	uuid   [16]byte

	heapOff uint64
	logOff  uint64
	logCap  uint64

	alloc *allocator
	tx    *txState

	recovered bool // recovery ran during Open
}

// Create formats a new pool with the given layout on the device and
// returns it. The root object is unset; call Root with a nonzero size to
// allocate it. This is the pmemobj_create analog.
func Create(dev *pmem.Device, layout string, opts Options) (*Pool, error) {
	site := instr.CallerSite(1)
	if len(layout) > layoutMax {
		return nil, ErrLayoutTooBig
	}
	logCap := uint64(opts.LogCap)
	if logCap == 0 {
		logCap = DefaultLogCap
	}
	minSize := uint64(headerSize) + logCap + 4096
	if uint64(dev.Size()) < minSize {
		return nil, fmt.Errorf("%w: need at least %d bytes", ErrTooSmall, minSize)
	}
	p := &Pool{dev: dev, layout: layout}
	if opts.Derandomize {
		p.uuid = constUUID
	} else {
		rng := rand.New(rand.NewSource(opts.UUIDSeed))
		for i := range p.uuid {
			p.uuid[i] = byte(rng.Intn(256))
		}
	}
	p.logOff = headerSize
	p.logCap = logCap
	p.heapOff = headerSize + logCap

	// Annotate the commit records before any store: a failure anywhere
	// inside creation leaves a partial header that Open validates — the
	// detection mechanism, not a cross-failure bug. Same for the
	// undo-log count word.
	dev.MarkCommitVar(0, headerSize)
	dev.MarkCommitVar(int(p.logOff), 8)

	// Header and allocator formatting are library metadata accesses.
	dev.PushInternal()
	defer dev.PopInternal()

	// Write the header fields, then persist them with a single barrier.
	p.storeRaw(offMagic, []byte(poolMagic), site)
	p.storeRaw(offUUID, p.uuid[:], site)
	lay := make([]byte, layoutMax)
	copy(lay, layout)
	p.storeRaw(offLayout, lay, site)
	p.storeU64Raw(offSize, uint64(dev.Size()), site)
	p.storeU64Raw(offRoot, 0, site)
	p.storeU64Raw(offRootLen, 0, site)
	p.storeU64Raw(offHeap, p.heapOff, site)
	p.storeU64Raw(offLogOff, p.logOff, site)
	p.storeU64Raw(offLogCap, p.logCap, site)
	// Zero the undo-log count.
	p.storeU64Raw(int(p.logOff), 0, site)
	dev.Flush(0, headerSize, site)
	dev.Flush(int(p.logOff), 8, site)
	dev.Fence(site)

	p.alloc = newAllocator(p)
	if err := p.alloc.format(site); err != nil {
		return nil, err
	}
	p.tx = newTxState(p)
	dev.LibOp(trace.PoolCreate, 0, headerSize, site)
	return p, nil
}

// Open validates the pool header, runs transaction recovery (applying any
// valid undo log left by a failure), rebuilds the volatile allocator
// state, and returns the pool. This is the pmemobj_open analog; like
// PMDK, transactional state auto-recovers here, while workloads built on
// low-level primitives (Hashmap-Atomic, Memcached) must run their own
// recovery functions afterwards — the distinction Bug 6 hinges on.
func Open(dev *pmem.Device, layout string) (*Pool, error) {
	site := instr.CallerSite(1)
	if dev.Size() < headerSize {
		return nil, fmt.Errorf("%w: device too small", ErrBadPool)
	}
	p := &Pool{dev: dev}
	dev.MarkCommitVar(0, headerSize)
	dev.PushInternal()
	defer dev.PopInternal()
	magic := make([]byte, 8)
	dev.Load(offMagic, magic, site)
	if string(magic) != poolMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadPool, magic)
	}
	dev.Load(offUUID, p.uuid[:], site)
	lay := make([]byte, layoutMax)
	dev.Load(offLayout, lay, site)
	n := 0
	for n < len(lay) && lay[n] != 0 {
		n++
	}
	p.layout = string(lay[:n])
	if layout != "" && p.layout != layout {
		return nil, fmt.Errorf("%w: have %q want %q", ErrWrongLayout, p.layout, layout)
	}
	size := p.loadU64Raw(offSize, site)
	if size != uint64(dev.Size()) {
		return nil, fmt.Errorf("%w: size field %d != device %d", ErrBadPool, size, dev.Size())
	}
	p.heapOff = p.loadU64Raw(offHeap, site)
	p.logOff = p.loadU64Raw(offLogOff, site)
	p.logCap = p.loadU64Raw(offLogCap, site)
	if p.heapOff < headerSize || p.heapOff > size || p.logOff < headerSize ||
		p.logOff+p.logCap > size {
		return nil, fmt.Errorf("%w: corrupt region offsets", ErrBadPool)
	}

	p.tx = newTxState(p)
	if p.tx.recoverLog(site) {
		p.recovered = true
		dev.LibOp(trace.Recovery, int(p.logOff), int(p.logCap), site)
	}
	p.alloc = newAllocator(p)
	if err := p.alloc.rebuild(site); err != nil {
		return nil, err
	}
	dev.MarkCommitVar(int(p.logOff), 8)
	dev.MarkCommitVar(0, headerSize)
	dev.LibOp(trace.PoolOpen, 0, headerSize, site)
	return p, nil
}

// Close flushes outstanding state and closes the underlying device,
// returning the final durable image contents.
func (p *Pool) Close() *pmem.Image {
	site := instr.CallerSite(1)
	p.dev.LibOp(trace.PoolClose, 0, 0, site)
	return p.dev.Close(p.uuid, p.layout)
}

// Device exposes the underlying simulated device.
func (p *Pool) Device() *pmem.Device { return p.dev }

// Layout returns the pool's layout name.
func (p *Pool) Layout() string { return p.layout }

// UUID returns the pool UUID.
func (p *Pool) UUID() [16]byte { return p.uuid }

// Recovered reports whether Open applied a leftover undo log.
func (p *Pool) Recovered() bool { return p.recovered }

// Root returns the root object handle, allocating it with the given size
// on first use (pmemobj_root analog). The allocation is performed inside
// an internal transaction so a failure cannot leak a half-set root.
func (p *Pool) Root(size uint64) (Oid, error) {
	site := instr.CallerSite(1)
	root := Oid(p.loadU64Raw(offRoot, site))
	if !root.IsNull() {
		return root, nil
	}
	if size == 0 {
		return OidNull, nil
	}
	oid, err := p.alloc.allocate(size, site, nil)
	if err != nil {
		return OidNull, err
	}
	p.dev.PushInternal()
	p.storeU64Raw(offRoot, uint64(oid), site)
	p.storeU64Raw(offRootLen, size, site)
	p.dev.Flush(offRoot, 16, site)
	p.dev.Fence(site)
	p.dev.PopInternal()
	return oid, nil
}

// RootOid returns the current root handle without allocating.
func (p *Pool) RootOid() Oid {
	site := instr.CallerSite(1)
	return Oid(p.loadU64Raw(offRoot, site))
}

// --- raw header helpers (no bounds logic beyond the device's) ---

func (p *Pool) storeRaw(off int, b []byte, site instr.SiteID) {
	p.dev.Store(off, b, site)
}

func (p *Pool) storeU64Raw(off int, v uint64, site instr.SiteID) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	p.dev.Store(off, b[:], site)
}

func (p *Pool) loadU64Raw(off int, site instr.SiteID) uint64 {
	var b [8]byte
	p.dev.Load(off, b[:], site)
	return binary.LittleEndian.Uint64(b[:])
}

// checkOid panics with ErrNullOid on null handles — the simulation's
// segmentation fault. Fuzzing executors catch the panic and report it the
// way AFL++ reports a crash, which is how the paper's Bugs 1–5 surfaced.
func (p *Pool) checkOid(oid Oid, n uint64) {
	if oid.IsNull() {
		panic(ErrNullOid)
	}
	if uint64(oid)+n > uint64(p.dev.Size()) {
		panic(fmt.Errorf("%w: oid=%d len=%d", pmem.ErrOutOfRange, oid, n))
	}
}

// --- typed persistent accessors (D_RO / D_RW analogs) ---

// U64 reads a uint64 field at oid+off (D_RO analog).
func (p *Pool) U64(oid Oid, off uint64) uint64 {
	site := instr.CallerSite(1)
	p.checkOid(oid, off+8)
	var b [8]byte
	p.dev.Load(int(uint64(oid)+off), b[:], site)
	return binary.LittleEndian.Uint64(b[:])
}

// SetU64 writes a uint64 field at oid+off (D_RW store analog). The store
// is volatile until flushed and fenced (directly or at TX commit).
func (p *Pool) SetU64(oid Oid, off uint64, v uint64) {
	site := instr.CallerSite(1)
	p.checkOid(oid, off+8)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	p.dev.Store(int(uint64(oid)+off), b[:], site)
}

// Bytes copies n bytes at oid+off out of PM.
func (p *Pool) Bytes(oid Oid, off, n uint64) []byte {
	site := instr.CallerSite(1)
	p.checkOid(oid, off+n)
	out := make([]byte, n)
	p.dev.Load(int(uint64(oid)+off), out, site)
	return out
}

// SetBytes stores b at oid+off.
func (p *Pool) SetBytes(oid Oid, off uint64, b []byte) {
	site := instr.CallerSite(1)
	p.checkOid(oid, off+uint64(len(b)))
	p.dev.Store(int(uint64(oid)+off), b, site)
}

// Persist flushes and fences the range [oid+off, oid+off+n) — the
// pmem_persist analog used by non-transactional code.
func (p *Pool) Persist(oid Oid, off, n uint64) {
	site := instr.CallerSite(1)
	p.checkOid(oid, off+n)
	p.dev.LibOp(trace.PersistCall, int(uint64(oid)+off), int(n), site)
	p.dev.Flush(int(uint64(oid)+off), int(n), site)
	p.dev.Fence(site)
}

// FlushRange flushes without fencing (pmem_flush analog).
func (p *Pool) FlushRange(oid Oid, off, n uint64) {
	site := instr.CallerSite(1)
	p.checkOid(oid, off+n)
	p.dev.Flush(int(uint64(oid)+off), int(n), site)
}

// Drain issues an ordering point (pmem_drain / persist_barrier analog).
func (p *Pool) Drain() {
	site := instr.CallerSite(1)
	p.dev.Fence(site)
}

// Alloc allocates size bytes non-transactionally and returns the handle.
// The allocator metadata update is itself crash-consistent.
func (p *Pool) Alloc(size uint64) (Oid, error) {
	site := instr.CallerSite(1)
	oid, err := p.alloc.allocate(size, site, nil)
	if err != nil {
		return OidNull, err
	}
	p.dev.LibOp(trace.Alloc, int(oid), int(size), site)
	return oid, nil
}

// AllocZeroed allocates and zero-fills persistently.
func (p *Pool) AllocZeroed(size uint64) (Oid, error) {
	site := instr.CallerSite(1)
	oid, err := p.alloc.allocate(size, site, nil)
	if err != nil {
		return OidNull, err
	}
	zero := make([]byte, size)
	p.dev.Store(int(oid), zero, site)
	p.dev.Flush(int(oid), int(size), site)
	p.dev.Fence(site)
	p.dev.LibOp(trace.Alloc, int(oid), int(size), site)
	return oid, nil
}

// Free releases an object non-transactionally.
func (p *Pool) Free(oid Oid) error {
	site := instr.CallerSite(1)
	if oid.IsNull() {
		return nil
	}
	p.dev.LibOp(trace.Free, int(oid), 0, site)
	var tx *txState
	if p.tx.depth > 0 {
		tx = p.tx
	}
	return p.alloc.release(oid, site, tx)
}

// ObjectSize returns the usable size of an allocated object.
func (p *Pool) ObjectSize(oid Oid) (uint64, error) {
	return p.alloc.objectSize(oid)
}
