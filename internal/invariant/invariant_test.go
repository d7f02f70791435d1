package invariant

import (
	"bytes"
	"fmt"
	"testing"

	"pmfuzz/internal/executor"
	"pmfuzz/internal/workloads"
	"pmfuzz/internal/workloads/bugs"
)

// cleanInputs drives each workload through inserts, removals, lookups,
// and its consistency check in its own dialect (mirrors the
// differential oracle's test inputs).
var cleanInputs = map[string][]byte{
	"btree":          kvInput(),
	"rbtree":         kvInput(),
	"rtree":          kvInput(),
	"skiplist":       kvInput(),
	"hashmap-tx":     kvInput(),
	"hashmap-atomic": kvInput(),
	"redis":          []byte("SET 1 1\nSET 9 2\nSET 17 3\nDEL 9\nCHECK\n"),
	"memcached":      []byte("set 1 1\nset 2 2\ndel 1\nset 3 3\nc\n"),
}

func kvInput() []byte {
	var b bytes.Buffer
	for i := 1; i <= 14; i++ {
		fmt.Fprintf(&b, "i %d %d\n", i*5%17, i)
	}
	b.WriteString("r 5\nr 10\nc\n")
	return b.Bytes()
}

// TestInvariantCleanParity is the false-positive gate the acceptance
// criteria pin: sets mined from a workload's own clean executions must
// produce zero violations across its full sweep, pre-fence windows
// included — with nothing self-validated away (the set and the checked
// case agree by construction) — and the value-leg pruning accounting
// must hold.
func TestInvariantCleanParity(t *testing.T) {
	c := NewChecker()
	for _, w := range workloads.Names() {
		w := w
		t.Run(w, func(t *testing.T) {
			in, ok := cleanInputs[w]
			if !ok {
				t.Fatalf("no clean input for workload %q", w)
			}
			tc := executor.TestCase{Workload: w, Input: in, Seed: 1}
			set, err := c.MineCase(tc, Options{})
			if err != nil {
				t.Fatalf("mining failed: %v", err)
			}
			if set.Len() == 0 {
				t.Fatalf("mined no invariants")
			}
			rep := c.Check(tc, set, Options{PreFence: true})
			if rep.Skipped != "" {
				t.Fatalf("check skipped: %s", rep.Skipped)
			}
			if rep.Checked == 0 {
				t.Fatalf("checked no crash images (barriers=%d)", rep.Barriers)
			}
			for _, v := range rep.Violations {
				t.Errorf("false positive: %s", v)
			}
			for _, d := range rep.Dropped {
				t.Errorf("self-mined invariant dropped by self-validation: %s", d)
			}
			// Value-leg pruning accounting: when value rules were judged,
			// every crash point fell into a class or hit one, and every
			// class was answered by exactly one recovery or memo hit.
			if rep.Classes+rep.ClassHits > 0 {
				if rep.Classes+rep.ClassHits != rep.Checked {
					t.Errorf("classes=%d + hits=%d != checked=%d", rep.Classes, rep.ClassHits, rep.Checked)
				}
				if rep.Recoveries+rep.MemoHits != rep.Classes {
					t.Errorf("recoveries=%d + memo=%d != classes=%d", rep.Recoveries, rep.MemoHits, rep.Classes)
				}
			}
		})
	}
}

// bugsFor builds a one-bug set.
func bugsFor(b bugs.RealBug) *bugs.Set { return bugs.NewSet().EnableReal(b) }

// bugCases are §5.4's crash-consistency bugs with their trigger inputs
// (same table the differential oracle's tests use).
var bugCases = []struct {
	name     string
	workload string
	input    []byte
	bug      bugs.RealBug
}{
	{"bug1", "hashmap-tx", []byte("i 1 1\ni 2 2\n"), bugs.Bug1HashmapTXCreateNotRetried},
	{"bug2", "btree", []byte("i 1 1\ni 2 2\n"), bugs.Bug2BTreeCreateNotRetried},
	{"bug3", "rbtree", []byte("i 1 1\ni 2 2\n"), bugs.Bug3RBTreeCreateNotRetried},
	{"bug4", "rtree", []byte("i 1 1\ni 2 2\n"), bugs.Bug4RTreeCreateNotRetried},
	{"bug5", "skiplist", []byte("i 1 1\ni 2 2\n"), bugs.Bug5SkipListCreateNotRetried},
	{"bug6", "hashmap-atomic", []byte("i 1 1\ni 2 2\ni 3 3\nc\n"), bugs.Bug6AtomicRecoveryNotCalled},
}

// TestInvariantBugParity is the true-positive gate: every one of Bugs
// 1–6 must be reconfirmed by invariant violation alone — no shadow
// model consulted — and the minimized bundle must replay to the same
// verdict. Bugs 1–6 corrupt only the recovery path, so clean traces
// (what mining consumes) are identical under the bug flags.
func TestInvariantBugParity(t *testing.T) {
	c := NewChecker()
	for _, tcase := range bugCases {
		tcase := tcase
		t.Run(tcase.name, func(t *testing.T) {
			tc := executor.TestCase{
				Workload: tcase.workload,
				Input:    tcase.input,
				Bugs:     bugs.NewSet().EnableReal(tcase.bug),
				Seed:     1,
			}
			set, err := c.MineCase(tc, Options{})
			if err != nil {
				t.Fatalf("mining failed: %v", err)
			}
			rep := c.Check(tc, set, Options{PreFence: true})
			if rep.Skipped != "" {
				t.Fatalf("check skipped: %s", rep.Skipped)
			}
			if len(rep.Violations) == 0 {
				t.Fatalf("invariant oracle missed %v (checked %d images over %d barriers, %d invariants)",
					tcase.bug, rep.Checked, rep.Barriers, set.Len())
			}
			v := rep.Violations[0]
			b := c.Minimize(tc, v, set, Options{PreFence: true})
			if b == nil {
				t.Fatalf("violation did not survive minimization: %s", v)
			}
			if len(b.Input) > len(tc.Input) {
				t.Fatalf("minimized input grew: %d > %d bytes", len(b.Input), len(tc.Input))
			}
			if b.Invariant == "" && b.Kind != "recovery-fault" && b.Kind != "recovery-error" {
				t.Fatalf("bundle lost its invariant: %+v", b)
			}
			// Determinism: the bundle replays to its recorded verdict.
			rrep := c.ReplayBundle(b, set, Options{})
			if rrep.Skipped != "" {
				t.Fatalf("replay skipped: %s", rrep.Skipped)
			}
			if len(rrep.Violations) == 0 {
				t.Fatalf("bundle no longer reproduces at barrier %d", b.Barrier)
			}
			if got := rrep.Violations[0]; got.Kind != b.Kind {
				t.Fatalf("replay verdict drifted: got %s, bundle says %s", got.Kind, b.Kind)
			}
		})
	}
}

// TestInvariantFixedProgramsClean re-checks the bug trigger inputs with
// the bugs disabled: the patched programs must be invariant-clean.
func TestInvariantFixedProgramsClean(t *testing.T) {
	c := NewChecker()
	for _, tcase := range bugCases {
		tc := executor.TestCase{Workload: tcase.workload, Input: tcase.input, Seed: 1}
		set, err := c.MineCase(tc, Options{})
		if err != nil {
			t.Fatalf("%s: mining failed: %v", tcase.workload, err)
		}
		rep := c.Check(tc, set, Options{PreFence: true})
		if rep.Skipped != "" {
			t.Fatalf("%s: check skipped: %s", tcase.workload, rep.Skipped)
		}
		for _, v := range rep.Violations {
			t.Errorf("%s: false positive on fixed program: %s", tcase.workload, v)
		}
	}
}

// TestSelfValidationDropsForeignRules pins the divergence channel: a
// rule the checked case's own clean behavior refutes is dropped (and
// reported) instead of fired — and with self-validation off, the same
// rule fires at every crash point in its refutation window.
func TestSelfValidationDropsForeignRules(t *testing.T) {
	c := NewChecker()
	tc := executor.TestCase{Workload: "btree", Input: []byte("i 1 1\ni 2 2\nc\n"), Seed: 1}
	set, err := c.MineCase(tc, Options{})
	if err != nil {
		t.Fatalf("mining failed: %v", err)
	}
	// Corrupt one mined value rule so the clean image refutes it.
	var bad *Invariant
	for _, iv := range set.Invs {
		if iv.Kind == Value {
			bad = iv
			break
		}
	}
	if bad == nil {
		t.Skip("no value invariant mined for btree")
	}
	bad.Data = append([]byte(nil), bad.Data...)
	bad.Data[0] ^= 0xff

	rep := c.Check(tc, set, Options{PreFence: true})
	if rep.Skipped != "" {
		t.Fatalf("check skipped: %s", rep.Skipped)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("self-validation failed to suppress the corrupted rule: %s", rep.Violations[0])
	}
	found := false
	for _, d := range rep.Dropped {
		if d == bad.Line() {
			found = true
		}
	}
	if !found {
		t.Fatalf("corrupted rule not reported in Dropped: %v", rep.Dropped)
	}

	// Without self-validation the corrupted rule fires.
	rep = c.Check(tc, set, Options{NoSelfValidate: true, MaxViolations: 4})
	if len(rep.Violations) == 0 {
		t.Fatalf("NoSelfValidate check found no violation for the corrupted rule")
	}
	if rep.Violations[0].Kind != "value-mismatch" {
		t.Fatalf("unexpected violation kind %s", rep.Violations[0].Kind)
	}
}

// TestSetSerializationDeterministic pins the golden property: mining
// the same case twice yields byte-identical pminv output, and
// parse→marshal round-trips it exactly.
func TestSetSerializationDeterministic(t *testing.T) {
	c := NewChecker()
	tc := executor.TestCase{Workload: "btree", Input: cleanInputs["btree"], Seed: 1}
	set1, err := c.MineCase(tc, Options{})
	if err != nil {
		t.Fatalf("mine 1: %v", err)
	}
	set2, err := c.MineCase(tc, Options{})
	if err != nil {
		t.Fatalf("mine 2: %v", err)
	}
	m1, m2 := set1.Marshal(), set2.Marshal()
	if !bytes.Equal(m1, m2) {
		t.Fatalf("mined serialization not deterministic:\n%s\nvs\n%s", m1, m2)
	}
	parsed, err := ParseSet(m1)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if got := parsed.Marshal(); !bytes.Equal(got, m1) {
		t.Fatalf("parse/marshal round trip drifted:\n%s\nvs\n%s", got, m1)
	}
	if parsed.Workload != "btree" {
		t.Fatalf("workload lost: %q", parsed.Workload)
	}
}

// TestParseSetErrors pins the format's rejection behavior.
func TestParseSetErrors(t *testing.T) {
	cases := []struct{ name, data string }{
		{"empty", ""},
		{"bad-header", "pminv v9\nworkload x\n"},
		{"no-workload", "pminv v1\norder 0x1 0x2 support=1\n"},
		{"dup-workload", "pminv v1\nworkload a\nworkload b\n"},
		{"unknown-directive", "pminv v1\nworkload a\nfrob 1 2 support=1\n"},
		{"self-pair", "pminv v1\nworkload a\norder 0x1 0x1 support=1\n"},
		{"atomic-not-canonical", "pminv v1\nworkload a\natomic 0x2 0x1 support=1\n"},
		{"bad-support", "pminv v1\nworkload a\norder 0x1 0x2 support=0\n"},
		{"value-len-mismatch", "pminv v1\nworkload a\nvalue 0x1 0 2 aa support=1\n"},
		{"value-len-zero", "pminv v1\nworkload a\nvalue 0x1 0 0  support=1\n"},
	}
	for _, tcase := range cases {
		if _, err := ParseSet([]byte(tcase.data)); err == nil {
			t.Errorf("%s: ParseSet accepted %q", tcase.name, tcase.data)
		}
	}
	ok := "pminv v1\nworkload a\n# comment\n\norder 0x1 0x2 support=3\nvalue 0x1 8 2 beef support=2\n"
	s, err := ParseSet([]byte(ok))
	if err != nil {
		t.Fatalf("valid set rejected: %v", err)
	}
	if s.Len() != 2 || s.Workload != "a" {
		t.Fatalf("parsed set wrong: %+v", s)
	}
}

// TestMinerPrefixSoundness is the miner-soundness property: invariants
// mined from a program (full run plus every prefix) must hold on every
// prefix re-execution of that same program — no surviving ordering rule
// refuted by a prefix trace, no surviving value rule contradicted by a
// prefix at-rest image.
func TestMinerPrefixSoundness(t *testing.T) {
	c := NewChecker()
	for _, w := range workloads.Names() {
		w := w
		t.Run(w, func(t *testing.T) {
			tc := executor.TestCase{Workload: w, Input: cleanInputs[w], Seed: 1}
			set, err := c.MineCase(tc, Options{})
			if err != nil {
				t.Fatalf("mining failed: %v", err)
			}
			lines := splitLines(tc.Input)
			for k := 0; k <= len(lines); k++ {
				ptc := tc
				ptc.Input = joinLines(lines[:k])
				res := executor.Run(ptc, executor.Options{RecordTrace: true})
				if res.Faulted() {
					t.Fatalf("prefix %d faulted: panicked=%v err=%v", k, res.Panicked, res.Err)
				}
				an := analyze(res.Trace.Events())
				_, refuted := pairingIntervals(an, set, an.barriers)
				for iv := range refuted {
					t.Errorf("prefix %d refutes mined rule %s", k, iv.Line())
				}
				for _, iv := range set.Invs {
					if iv.Kind != Value {
						continue
					}
					if iv.Off+iv.Len > res.Image.Size() ||
						!bytes.Equal(res.Image.Bytes()[iv.Off:iv.Off+iv.Len], iv.Data) {
						t.Errorf("prefix %d contradicts mined rule %s", k, iv.Line())
					}
				}
			}
		})
	}
}

// TestMinerObservationOrderIndependence pins that mining is a
// commutative fold: observing the same executions in reverse order
// yields a byte-identical set.
func TestMinerObservationOrderIndependence(t *testing.T) {
	type obs struct {
		input []byte
	}
	observations := []obs{
		{[]byte("")},
		{[]byte("i 1 1")},
		{[]byte("i 1 1\ni 2 2\nr 1\nc\n")},
	}
	mine := func(order []int) []byte {
		m := NewMiner("btree")
		for _, i := range order {
			res := executor.Run(
				executor.TestCase{Workload: "btree", Input: observations[i].input, Seed: 1},
				executor.Options{RecordTrace: true})
			if res.Faulted() {
				t.Fatalf("observation %d faulted", i)
			}
			m.Observe(res.Trace.Events(), res.Image)
		}
		return m.Mine().Marshal()
	}
	fwd := mine([]int{0, 1, 2})
	rev := mine([]int{2, 1, 0})
	if !bytes.Equal(fwd, rev) {
		t.Fatalf("mined set depends on observation order:\n%s\nvs\n%s", fwd, rev)
	}
}

// TestCheckSkips pins the graceful-skip paths.
func TestCheckSkips(t *testing.T) {
	c := NewChecker()
	tc := executor.TestCase{Workload: "btree", Input: []byte("i 1 1\n"), Seed: 1}
	if rep := c.Check(tc, nil, Options{}); rep.Skipped == "" {
		t.Fatal("nil set not skipped")
	}
	if rep := c.Check(tc, &Set{Workload: "rbtree", Invs: []*Invariant{{Kind: Order, A: 1, B: 2}}}, Options{}); rep.Skipped == "" {
		t.Fatal("workload mismatch not skipped")
	}
	m := NewMiner("rbtree")
	if err := c.Observe(m, tc, Options{}); err == nil {
		t.Fatal("workload-mismatched Observe not rejected")
	}
}
