package workloads

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"pmfuzz/internal/instr"
	"pmfuzz/internal/pmem"
	"pmfuzz/internal/workloads/bugs"
)

// runProgram executes a command stream on a fresh or existing image and
// returns the resulting image. It is a miniature version of the fuzzing
// executor, used to exercise workloads directly.
func runProgram(t *testing.T, name string, img *pmem.Image, input []byte, bg *bugs.Set) *pmem.Image {
	t.Helper()
	out, err := tryRunProgram(name, img, input, bg, nil)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return out
}

// tryRunProgram is runProgram without the test dependency; inj optionally
// injects failures. A pmem.Crash is returned as *pmem.Crash via err while
// the crash image is still produced.
func tryRunProgram(name string, img *pmem.Image, input []byte, bg *bugs.Set, inj pmem.FailureInjector) (out *pmem.Image, err error) {
	prog, err := New(name)
	if err != nil {
		return nil, err
	}
	var dev *pmem.Device
	if img != nil {
		dev = pmem.NewDeviceFromImage(img)
	} else {
		dev = pmem.NewDevice(prog.PoolSize())
	}
	if inj != nil {
		dev.SetInjector(inj)
	}
	env := &Env{Dev: dev, T: instr.NewTracer(), RNG: rand.New(rand.NewSource(1)), Bugs: bg}
	defer func() {
		if r := recover(); r != nil {
			if c, ok := r.(pmem.Crash); ok {
				out = pmem.NewImage([16]byte{}, name, dev.PersistedSnapshot())
				err = c
				return
			}
			err = fmt.Errorf("panic: %v", r)
			out = pmem.NewImage([16]byte{}, name, dev.PersistedSnapshot())
		}
	}()
	if err := prog.Setup(env); err != nil {
		return nil, err
	}
	for _, line := range bytes.Split(input, []byte("\n")) {
		if err := prog.Exec(env, line); err != nil {
			if errors.Is(err, ErrStop) {
				break
			}
			return nil, err
		}
	}
	return prog.Close(env), nil
}

// checkAfter runs the consistency-check command on an image and returns
// its error, if any.
func checkAfter(name string, img *pmem.Image) error {
	_, err := tryRunProgram(name, img, []byte("c\n"), nil, nil)
	return err
}

// kvWorkloads are the six mapcli-driven structures.
func kvWorkloads() []string {
	return []string{"btree", "rbtree", "rtree", "skiplist", "hashmap-tx", "hashmap-atomic"}
}

// buildInput renders a deterministic random op sequence for stress tests.
func buildInput(seed int64, n int, keySpace uint64) []byte {
	rng := rand.New(rand.NewSource(seed))
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		k := rng.Uint64() % keySpace
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4:
			fmt.Fprintf(&buf, "i %d %d\n", k, rng.Uint64()%1000)
		case 5, 6, 7:
			fmt.Fprintf(&buf, "r %d\n", k)
		case 8:
			fmt.Fprintf(&buf, "g %d\n", k)
		case 9:
			buf.WriteString("c\n")
		}
	}
	buf.WriteString("c\n")
	return buf.Bytes()
}

// refModel replays a mapcli input against a plain map to produce the
// expected final contents.
func refModel(input []byte) map[uint64]uint64 {
	m := map[uint64]uint64{}
	for _, line := range bytes.Split(input, []byte("\n")) {
		op, err := ParseOp(line)
		if err != nil {
			continue
		}
		switch op.Code {
		case 'i':
			m[op.Key] = op.Val
		case 'r':
			delete(m, op.Key)
		case 'q':
			return m
		}
	}
	return m
}

func TestParseOp(t *testing.T) {
	cases := []struct {
		in   string
		ok   bool
		want Op
	}{
		{"i 5 10", true, Op{Code: 'i', Key: 5, Val: 10}},
		{"r 7", true, Op{Code: 'r', Key: 7}},
		{"g 0", true, Op{Code: 'g'}},
		{"c", true, Op{Code: 'c'}},
		{"q", true, Op{Code: 'q'}},
		{"", false, Op{}},
		{"i 5", false, Op{}},
		{"i x y", false, Op{}},
		{"zz 1", false, Op{}},
		{"i 99999999999999999999 1", false, Op{}},
	}
	for _, c := range cases {
		got, err := ParseOp([]byte(c.in))
		if c.ok != (err == nil) {
			t.Errorf("ParseOp(%q) err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseOp(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestRegistryHasAllEight(t *testing.T) {
	want := []string{"btree", "hashmap-atomic", "hashmap-tx", "memcached", "rbtree", "redis", "rtree", "skiplist"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
}

func TestSynPointCountsMatchTable3(t *testing.T) {
	for name, want := range bugs.SynCounts {
		prog, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		pts := prog.SynPoints()
		if len(pts) != want {
			t.Errorf("%s: %d synthetic points, want %d (Table 3)", name, len(pts), want)
		}
		seen := map[int]bool{}
		for _, pt := range pts {
			if seen[pt.ID] {
				t.Errorf("%s: duplicate injection point ID %d", name, pt.ID)
			}
			seen[pt.ID] = true
		}
	}
}

// TestKVWorkloadsMatchReferenceModel stress-tests every mapcli structure
// against a plain-map reference model across several seeds, verifying
// both final contents (via lookups) and internal invariants (via 'c').
func TestKVWorkloadsMatchReferenceModel(t *testing.T) {
	for _, name := range kvWorkloads() {
		name := name
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				input := buildInput(seed, 120, 40)
				img := runProgram(t, name, nil, input, nil)
				ref := refModel(input)
				// Verify every reference key via lookup commands and a
				// final consistency check on the reopened image.
				var probe bytes.Buffer
				for k := range ref {
					fmt.Fprintf(&probe, "g %d\n", k)
				}
				probe.WriteString("c\n")
				if _, err := tryRunProgram(name, img, probe.Bytes(), nil, nil); err != nil {
					t.Fatalf("seed %d: probe failed: %v", seed, err)
				}
				verifyContents(t, name, img, ref)
			}
		})
	}
}

// verifyContents reopens the image and checks each key's value via the
// workload's lookup path using the model map.
func verifyContents(t *testing.T, name string, img *pmem.Image, ref map[uint64]uint64) {
	t.Helper()
	prog, err := New(name)
	if err != nil {
		t.Fatal(err)
	}
	dev := pmem.NewDeviceFromImage(img)
	env := &Env{Dev: dev, T: instr.NewTracer(), RNG: rand.New(rand.NewSource(1))}
	if err := prog.Setup(env); err != nil {
		t.Fatal(err)
	}
	g, ok := prog.(interface {
		Lookup(env *Env, key uint64) (uint64, bool)
	})
	if !ok {
		t.Fatalf("%s does not expose Lookup for verification", name)
	}
	for k, v := range ref {
		got, found := g.Lookup(env, k)
		if !found {
			t.Fatalf("%s: key %d missing (want %d)", name, k, v)
		}
		if got != v {
			t.Fatalf("%s: key %d = %d, want %d", name, k, got, v)
		}
	}
	// And a key never inserted must be absent.
	if _, found := g.Lookup(env, 1<<60); found {
		t.Fatalf("%s: phantom key present", name)
	}
}

// TestKVWorkloadsCrashSweep sweeps failures across every barrier of a
// mutation-heavy input; after each crash, recovery must yield a
// consistent structure (the 'c' command passes).
func TestKVWorkloadsCrashSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("crash sweep is slow")
	}
	input := []byte("i 1 1\ni 2 2\ni 3 3\ni 4 4\ni 5 5\ni 6 6\ni 7 7\nr 2\nr 4\nr 6\ni 8 8\n")
	for _, name := range kvWorkloads() {
		name := name
		t.Run(name, func(t *testing.T) {
			crashes := 0
			for barrier := 1; ; barrier++ {
				img, err := tryRunProgram(name, nil, input, nil, pmem.BarrierFailure{N: barrier})
				if err == nil {
					break // past the last barrier: clean run
				}
				if _, ok := err.(pmem.Crash); !ok {
					t.Fatalf("barrier %d: unexpected error %v", barrier, err)
				}
				crashes++
				if err := checkAfter(name, img); err != nil {
					t.Fatalf("barrier %d: recovery left inconsistent state: %v", barrier, err)
				}
				if barrier > 5000 {
					t.Fatalf("crash sweep did not terminate")
				}
			}
			if crashes == 0 {
				t.Fatalf("no barriers hit")
			}
		})
	}
}

// TestIncrementalImageReuse runs commands on top of a previous run's
// image — the indirect image-mutation pipeline PMFuzz relies on.
func TestIncrementalImageReuse(t *testing.T) {
	for _, name := range kvWorkloads() {
		img := runProgram(t, name, nil, []byte("i 1 10\ni 2 20\n"), nil)
		img2 := runProgram(t, name, img, []byte("i 3 30\nr 1\nc\n"), nil)
		verifyContents(t, name, img2, map[uint64]uint64{2: 20, 3: 30})
	}
}

// TestDeterministicImages verifies the §4.4 derandomization property:
// the same input on the same parent image yields a byte-identical image.
func TestDeterministicImages(t *testing.T) {
	for _, name := range Names() {
		prog, _ := New(name)
		input := prog.SeedInputs()[0]
		a := runProgram(t, name, nil, input, nil)
		b := runProgram(t, name, nil, input, nil)
		if a.Hash() != b.Hash() {
			t.Errorf("%s: images differ across identical runs", name)
		}
	}
}

func TestSeedInputsRunClean(t *testing.T) {
	for _, name := range Names() {
		prog, _ := New(name)
		for i, seed := range prog.SeedInputs() {
			if _, err := tryRunProgram(name, nil, seed, nil, nil); err != nil {
				t.Errorf("%s seed %d: %v", name, i, err)
			}
		}
	}
}

// TestKVWorkloadsOpLevelCrashSweep injects failures at arbitrary PM
// operations (not only ordering points), with the device's queued-line
// eviction choosing which flushed-but-unfenced lines survive. Correct
// protocols must recover consistently from every such state.
func TestKVWorkloadsOpLevelCrashSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("op-level crash sweep is slow")
	}
	input := []byte("i 1 1\ni 2 2\ni 3 3\ni 4 4\nr 2\ni 5 5\nr 4\n")
	for _, name := range append(kvWorkloads(), "memcached", "redis") {
		name := name
		in := input
		if name == "memcached" {
			in = []byte("set 1 1\nset 2 2\nset 3 3\ndel 2\nset 4 4\n")
		}
		if name == "redis" {
			in = []byte("SET 1 1\nSET 9 2\nSET 17 3\nDEL 9\nSET 2 4\n")
		}
		t.Run(name, func(t *testing.T) {
			// Learn the op count from a clean run, then sweep a sample of
			// op-level failure points.
			img, err := tryRunProgram(name, nil, in, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			_ = img
			clean, err := tryRunProgram(name, nil, in, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			_ = clean
			// Re-derive total ops with a counting injector: use a barrier
			// far beyond the end so nothing fires, and read ops via the
			// executor-level helper instead — here we simply sweep a fixed
			// sample of op indexes; out-of-range points run clean.
			for op := 5; op <= 2000; op += 13 {
				crashImg, err := tryRunProgram(name, nil, in, nil, pmem.OpFailure{N: op})
				if err == nil {
					break // past the end of the execution
				}
				if _, ok := err.(pmem.Crash); !ok {
					t.Fatalf("op %d: unexpected error %v", op, err)
				}
				if cerr := checkAfter(name, crashImg); cerr != nil {
					t.Fatalf("op %d: inconsistent after recovery: %v", op, cerr)
				}
			}
		})
	}
}
