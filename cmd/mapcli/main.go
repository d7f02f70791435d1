// Command mapcli drives a PM workload interactively or from a script —
// the analog of PMDK's mapcli example driver the paper uses to exercise
// the key-value structures.
//
// Usage:
//
//	echo "i 1 100
//	g 1
//	c" | mapcli -workload btree -save pool.img
//	mapcli -workload btree -load pool.img   # continues on the saved image
//
// With -fail-barrier N the run is interrupted by a simulated power
// failure at the N-th ordering point and the resulting crash image is
// written to -save, ready to be fed back for a recovery run.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"pmfuzz/internal/instr"
	"pmfuzz/internal/pmem"
	"pmfuzz/internal/workloads"
	"pmfuzz/internal/workloads/bugs"
)

func main() {
	var (
		workload    = flag.String("workload", "btree", "workload to drive")
		loadPath    = flag.String("load", "", "PM image to load")
		savePath    = flag.String("save", "", "write the resulting PM image here")
		seed        = flag.Int64("seed", 1, "execution seed")
		failBarrier = flag.Int("fail-barrier", 0, "inject a failure at this ordering point (0 = none)")
		realBug     = flag.Int("real-bug", 0, "enable a real-world bug (1-12)")
		synBug      = flag.Int("syn-bug", 0, "enable a synthetic injection point")
		stats       = flag.Bool("stats", false, "print PM operation statistics")
	)
	flag.Parse()

	prog, err := workloads.New(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mapcli:", err)
		os.Exit(1)
	}
	var dev *pmem.Device
	if *loadPath != "" {
		raw, err := os.ReadFile(*loadPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mapcli:", err)
			os.Exit(1)
		}
		img, err := pmem.UnmarshalImage(raw)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mapcli:", err)
			os.Exit(1)
		}
		dev = pmem.NewDeviceFromImage(img)
	} else {
		dev = pmem.NewDevice(prog.PoolSize())
	}
	if *failBarrier > 0 {
		dev.SetInjector(pmem.BarrierFailure{N: *failBarrier})
	}

	bg := bugs.NewSet()
	if *realBug > 0 {
		bg.EnableReal(bugs.RealBug(*realBug))
	}
	if *synBug > 0 {
		bg.EnableSyn(*synBug)
	}
	tracer := instr.NewTracer()
	dev.SetTracer(tracer)
	env := &workloads.Env{
		Dev:  dev,
		T:    tracer,
		RNG:  rand.New(rand.NewSource(*seed)),
		Bugs: bg,
	}

	var img *pmem.Image
	crashed := false
	func() {
		defer func() {
			if r := recover(); r != nil {
				if c, ok := r.(pmem.Crash); ok {
					crashed = true
					fmt.Printf("power failure injected at barrier %d (op %d)\n", c.Barrier, c.Op)
					img = dev.PersistedImage([16]byte{}, *workload)
					return
				}
				fmt.Fprintf(os.Stderr, "mapcli: program fault: %v\n", r)
				os.Exit(1)
			}
		}()
		if err := prog.Setup(env); err != nil {
			fmt.Fprintln(os.Stderr, "mapcli: setup:", err)
			os.Exit(1)
		}
		sc := bufio.NewScanner(os.Stdin)
		for sc.Scan() {
			if err := prog.Exec(env, sc.Bytes()); err != nil {
				if errors.Is(err, workloads.ErrStop) {
					break
				}
				fmt.Printf("error: %v\n", err)
			}
		}
		img = prog.Close(env)
	}()

	if *stats {
		s := dev.Stats()
		fmt.Printf("PM ops: %d stores, %d loads, %d flushes, %d fences, %d NT stores; %d barriers\n",
			s.Stores, s.Loads, s.Flushes, s.Fences, s.NTStores, dev.Barriers())
		fmt.Printf("PM paths in this run: %d transitions\n", env.T.PMMap().CountNonZero())
	}
	if *savePath != "" && img != nil {
		if err := os.WriteFile(*savePath, img.Marshal(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "mapcli:", err)
			os.Exit(1)
		}
		kind := "normal"
		if crashed {
			kind = "crash"
		}
		fmt.Printf("saved %s image (%d bytes) to %s\n", kind, img.Size(), *savePath)
	}
}
