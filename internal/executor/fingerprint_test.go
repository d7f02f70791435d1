package executor

import (
	"testing"

	"pmfuzz/internal/pmem"
)

// TestFingerprintsMatchMaterialized pins the bridge between the journal
// partitioner and materialized crash Results: for every sweep point on
// real workloads, the fingerprint's components equal what the fully
// materialized Result records — image hash, crash op, command count,
// normalized commit-variable set, and lost-store taint signature. This
// is the property that makes representative-per-class checking lossless
// at the class-key level.
func TestFingerprintsMatchMaterialized(t *testing.T) {
	cases := []struct {
		workload string
		input    string
	}{
		{"btree", "i 1 10\ni 2 20\ni 3 30\ni 4 40\nr 2\nc\n"},
		{"redis", "SET 1 1\nSET 9 2\nSET 17 3\nDEL 9\nCHECK\n"},
	}
	for _, c := range cases {
		t.Run(c.workload, func(t *testing.T) {
			tc := TestCase{Workload: c.workload, Input: []byte(c.input), Seed: 1}
			sw := SweepRun(tc, Options{})
			if sw.Barriers() == 0 {
				t.Fatalf("%s: sweep run unusable", c.workload)
			}
			fps := sw.Fingerprints(0, true)
			if len(fps) == 0 {
				t.Fatalf("%s: no fingerprints", c.workload)
			}
			sawPre := false
			for _, fp := range fps {
				var crash *Result
				if fp.PreFence {
					sawPre = true
					crash = sw.PreFenceCrash(fp.Barrier)
				} else {
					crash = sw.Crash(fp.Barrier)
				}
				if crash == nil || !crash.Crashed || crash.Image == nil {
					t.Fatalf("%s b=%d pre=%t: materialization failed", c.workload, fp.Barrier, fp.PreFence)
				}
				if got := crash.Image.Hash(); got != fp.FP.ImageHash {
					t.Fatalf("%s b=%d pre=%t: image hash mismatch", c.workload, fp.Barrier, fp.PreFence)
				}
				if crash.Crash.Op != fp.Op {
					t.Fatalf("%s b=%d pre=%t: op %d != fingerprint op %d", c.workload, fp.Barrier, fp.PreFence, crash.Crash.Op, fp.Op)
				}
				if crash.Commands != fp.Commands {
					t.Fatalf("%s b=%d pre=%t: commands %d != %d", c.workload, fp.Barrier, fp.PreFence, crash.Commands, fp.Commands)
				}
				if len(crash.CommitVars) != fp.FP.CVCount {
					t.Fatalf("%s b=%d pre=%t: commit vars %d != %d", c.workload, fp.Barrier, fp.PreFence, len(crash.CommitVars), fp.FP.CVCount)
				}
				if got := pmem.CommitVarSignature(crash.CommitVars, crash.Image); got != fp.FP.CVHash {
					t.Fatalf("%s b=%d pre=%t: commit-var signature mismatch", c.workload, fp.Barrier, fp.PreFence)
				}
				if got := pmem.TaintSignature(crash.LostAtCrash); got != fp.FP.TaintSig {
					t.Fatalf("%s b=%d pre=%t: taint signature mismatch", c.workload, fp.Barrier, fp.PreFence)
				}
				// The Result-derived class key is the fingerprint's semantic
				// key modulo the 0→1 remap reserving 0 for "unclassified".
				want := fp.SemanticKey()
				if want == 0 {
					want = 1
				}
				if got := CrashClassKey(crash); got != want {
					t.Fatalf("%s b=%d pre=%t: CrashClassKey %#x != semantic key %#x", c.workload, fp.Barrier, fp.PreFence, got, want)
				}
			}
			if !sawPre {
				t.Fatalf("%s: sweep produced no pre-fence points", c.workload)
			}
		})
	}
}
