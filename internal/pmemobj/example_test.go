package pmemobj_test

import (
	"fmt"

	"pmfuzz/internal/pmem"
	"pmfuzz/internal/pmemobj"
)

// The canonical transaction pattern: snapshot, mutate, commit. A failure
// anywhere before the commit point rolls the update back on reopen.
func ExamplePool_Tx() {
	dev := pmem.NewDevice(512 * 1024)
	pool, err := pmemobj.Create(dev, "example", pmemobj.Options{Derandomize: true})
	if err != nil {
		panic(err)
	}
	root, err := pool.Root(64)
	if err != nil {
		panic(err)
	}

	err = pool.Tx(func() error {
		if err := pool.TxAdd(root, 0, 8); err != nil {
			return err
		}
		pool.SetU64(root, 0, 42)
		return nil
	})
	if err != nil {
		panic(err)
	}

	// The committed value is durable: reopen from the persisted state.
	img := pool.Close()
	pool2, err := pmemobj.Open(pmem.NewDeviceFromImage(img), "example")
	if err != nil {
		panic(err)
	}
	fmt.Println(pool2.U64(pool2.RootOid(), 0))
	// Output: 42
}

// Crash consistency in one screen: interrupt a transaction with a
// simulated power failure; reopening applies the undo log and restores
// the old value.
func ExampleOpen_recovery() {
	dev := pmem.NewDevice(512 * 1024)
	pool, _ := pmemobj.Create(dev, "example", pmemobj.Options{Derandomize: true})
	root, _ := pool.Root(64)
	pool.SetU64(root, 0, 1)
	pool.Persist(root, 0, 8)

	func() {
		defer func() { recover() }() // the injected failure unwinds here
		pool.Begin()
		if err := pool.TxAdd(root, 0, 8); err != nil {
			panic(err)
		}
		pool.SetU64(root, 0, 2)
		pool.FlushRange(root, 0, 8)
		dev.SetInjector(pmem.BarrierFailure{N: dev.Barriers() + 1})
		pool.Drain() // power failure: in-place update persisted, log valid
	}()

	img := pmem.NewImage([16]byte{}, "example", dev.PersistedSnapshot())
	pool2, _ := pmemobj.Open(pmem.NewDeviceFromImage(img), "example")
	fmt.Println(pool2.Recovered(), pool2.U64(root, 0))
	// Output: true 1
}
