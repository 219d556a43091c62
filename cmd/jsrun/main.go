// Command jsrun executes a JavaScript file on a named engine version (or
// the defect-free reference), printing the program output and outcome.
//
// Usage:
//
//	jsrun -engine Rhino -version v1.7.12 script.js
//	jsrun -strict script.js            # reference engine, strict mode
//	jsrun -list                        # list engine versions
//	jsrun -cpuprofile cpu.prof -n 1000 hot.js   # profile a single program
//	jsrun -disable-compile script.js   # tree-walking evaluator (oracle)
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"comfort/internal/engines"
)

func main() {
	// Profile flushing happens in deferred handlers, which os.Exit would
	// skip; realMain returns the exit code instead.
	os.Exit(realMain())
}

func realMain() int {
	var (
		engine  = flag.String("engine", "", "engine family (empty = reference)")
		version = flag.String("version", "", "engine version or build")
		strict  = flag.Bool("strict", false, "run in strict mode")
		fuel    = flag.Int64("fuel", 2_000_000, "step budget")
		list    = flag.Bool("list", false, "list engine versions and exit")
		repeat  = flag.Int("n", 1, "execute the program n times (profiling workloads)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write an allocation profile to this file on exit")
		mode    engines.Mode
	)
	mode.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if *list {
		for _, e := range engines.All() {
			for _, v := range e.Versions {
				fmt.Printf("%-14s %-12s %-12s (%d seeded defects)\n",
					e.Name, v.Name, v.Build, len(engines.ActiveDefects(v)))
			}
		}
		return 0
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: jsrun [-engine E -version V] [-strict] file.js")
		return 2
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live objects before the heap snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	opts := engines.RunOptions{Fuel: *fuel, Seed: 1, Mode: mode}
	tb := engines.ReferenceTestbed(*strict)
	if *engine != "" {
		v, ok := engines.FindVersion(*engine, *version)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown engine version %s/%s (try -list)\n", *engine, *version)
			return 1
		}
		tb = engines.Testbed{Version: v, Strict: *strict}
	}
	// Repetitions are for profiling workloads; only the last execution's
	// output and outcome are reported.
	var res engines.ExecResult
	for i := 0; i < *repeat || i == 0; i++ {
		res = tb.Run(string(src), opts)
	}
	fmt.Print(res.Output)
	if res.Outcome != engines.OutcomePass {
		fmt.Fprintf(os.Stderr, "[%s] %s\n", res.Outcome, res.Error)
		return 1
	}
	return 0
}
