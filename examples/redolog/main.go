// Redo logging: the write-ahead counterpart of the undo-log
// transactions the workloads use (§2.1 lists undo/redo logging and
// checkpointing as the classic crash-consistency mechanisms). This
// example stages a multi-field update in a redo log, crashes the program
// at every ordering point of the commit protocol, and shows that
// recovery always lands on all-or-nothing — never a torn batch.
//
//	go run ./examples/redolog
package main

import (
	"fmt"
	"log"

	"pmfuzz/internal/pmem"
	"pmfuzz/internal/pmemobj"
)

func main() {
	outcomes := map[string]int{}

	for barrier := 1; ; barrier++ {
		dev := pmem.NewDevice(512 * 1024)
		pool, err := pmemobj.Create(dev, "redo-demo", pmemobj.Options{Derandomize: true})
		if err != nil {
			log.Fatal(err)
		}
		root, err := pool.Root(64)
		if err != nil {
			log.Fatal(err)
		}
		rlog, err := pool.NewRedoLog(1024)
		if err != nil {
			log.Fatal(err)
		}
		logOid := rlog.Oid()
		start := dev.Barriers()

		crashed := func() (c bool) {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(pmem.Crash); !ok {
						panic(r)
					}
					c = true
				}
			}()
			dev.SetInjector(pmem.BarrierFailure{N: start + barrier})
			// Stage a three-field "account transfer" and commit it.
			must(rlog.RecordU64(root, 0, 100)) // balance A
			must(rlog.RecordU64(root, 8, 200)) // balance B
			must(rlog.RecordU64(root, 16, 1))  // transfer sequence number
			rlog.Commit()
			return false
		}()

		// Reboot: reopen the pool and re-attach the redo log (recovery
		// replays a valid-but-unapplied batch).
		img := dev.PersistedImage([16]byte{}, "redo-demo")
		pool2, err := pmemobj.Open(pmem.NewDeviceFromImage(img), "redo-demo")
		if err != nil {
			log.Fatal(err)
		}
		if _, err := pmemobj.OpenRedoLog(pool2, logOid, 1024); err != nil {
			log.Fatal(err)
		}
		a, b, seq := pool2.U64(root, 0), pool2.U64(root, 8), pool2.U64(root, 16)
		switch {
		case a == 0 && b == 0 && seq == 0:
			outcomes["nothing (crash before the commit point)"]++
		case a == 100 && b == 200 && seq == 1:
			outcomes["everything (commit point persisted)"]++
		default:
			log.Fatalf("TORN BATCH at barrier %d: %d %d %d", barrier, a, b, seq)
		}
		if !crashed {
			break // the injected barrier was past the end of the protocol
		}
	}

	fmt.Println("crash sweep across the redo-commit protocol:")
	for outcome, n := range outcomes {
		fmt.Printf("  %2d failure points -> %s\n", n, outcome)
	}
	fmt.Println("no failure point produced a torn batch: redo commit is atomic")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
