package executor

import (
	"bytes"
	"fmt"
	"testing"

	"pmfuzz/internal/pmem"
	"pmfuzz/internal/trace"
)

// recoveryInputs drives each workload far enough to give the sweep a
// meaningful spread of crash images in that workload's dialect.
var recoveryInputs = map[string][]byte{
	"btree":          []byte("i 1 1\ni 2 2\ni 3 3\ni 4 4\nr 2\nc\n"),
	"rbtree":         []byte("i 1 1\ni 2 2\ni 3 3\ni 4 4\nr 2\nc\n"),
	"rtree":          []byte("i 1 1\ni 2 2\ni 3 3\ni 4 4\nr 2\nc\n"),
	"skiplist":       []byte("i 1 1\ni 2 2\ni 3 3\ni 4 4\nr 2\nc\n"),
	"hashmap-tx":     []byte("i 1 1\ni 2 2\ni 3 3\ni 4 4\nr 2\nc\n"),
	"hashmap-atomic": []byte("i 1 1\ni 2 2\ni 3 3\ni 4 4\nr 2\nc\n"),
	"redis":          []byte("SET 1 1\nSET 9 2\nSET 17 3\nDEL 9\nCHECK\n"),
	"memcached":      []byte("set 1 1\nset 2 2\ndel 1\nset 3 3\nc\n"),
}

// recover1 runs recovery (Setup with no commands) on img and returns the
// resulting image and PM-operation trace.
func recover1(t *testing.T, workload string, img *pmem.Image, seed int64) (*pmem.Image, []trace.Event) {
	t.Helper()
	res := Run(TestCase{Workload: workload, Image: img, Seed: seed},
		Options{RecordTrace: true})
	if res.Faulted() {
		t.Fatalf("%s: recovery faulted: panicked=%v err=%v", workload, res.Panicked, res.Err)
	}
	evs := append([]trace.Event(nil), res.Trace.Events()...)
	return res.Image, evs
}

// TestRecoveryIdempotence is the property the differential oracle leans
// on: recovery is a fixpoint. For a sample of crash images from each
// workload's sweep, recovering the recovered image again must leave the
// image byte-identical and replay an identical PM-operation trace.
func TestRecoveryIdempotence(t *testing.T) {
	for workload, input := range recoveryInputs {
		workload, input := workload, input
		t.Run(workload, func(t *testing.T) {
			tc := TestCase{Workload: workload, Input: input, Seed: 1}
			sw := SweepRun(tc, Options{})
			if sw.Clean.Faulted() {
				t.Fatalf("clean run faulted: panicked=%v err=%v", sw.Clean.Panicked, sw.Clean.Err)
			}
			n := sw.Barriers()
			if n == 0 {
				t.Fatal("sweep produced no barriers")
			}
			for _, b := range sampleBarriers(n) {
				b := b
				t.Run(fmt.Sprintf("barrier%d", b), func(t *testing.T) {
					crash := sw.Crash(b)
					if crash == nil {
						t.Skip("no crash image at barrier")
					}
					// First recovery may repair (rolled-back tx, count
					// recount); the second and third must agree exactly.
					img1, _ := recover1(t, workload, crash.Image, tc.Seed)
					img2, trace2 := recover1(t, workload, img1, tc.Seed)
					if !bytes.Equal(img2.Bytes(), img1.Bytes()) {
						t.Fatalf("second recovery changed the image (%d vs %d bytes)",
							len(img2.Bytes()), len(img1.Bytes()))
					}
					img3, trace3 := recover1(t, workload, img2, tc.Seed)
					if !bytes.Equal(img3.Bytes(), img2.Bytes()) {
						t.Fatalf("third recovery changed the image")
					}
					if len(trace2) != len(trace3) {
						t.Fatalf("recovery traces differ in length: %d vs %d", len(trace2), len(trace3))
					}
					for i := range trace2 {
						if trace2[i] != trace3[i] {
							t.Fatalf("recovery traces diverge at event %d: %+v vs %+v",
								i, trace2[i], trace3[i])
						}
					}
				})
			}
		})
	}
}

// sampleBarriers picks a spread of crash points across the sweep.
func sampleBarriers(n int) []int {
	picks := []int{1, n / 4, n / 2, 3 * n / 4, n}
	var out []int
	seen := map[int]bool{}
	for _, b := range picks {
		if b >= 1 && b <= n && !seen[b] {
			seen[b] = true
			out = append(out, b)
		}
	}
	return out
}
