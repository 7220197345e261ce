package obs

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
)

// Mutex and block profiling carry a runtime cost while armed, so they are
// sampled: one contended mutex event in mutexFraction, and one sample per
// blockRate nanoseconds of goroutine blocking.
const (
	mutexFraction = 5
	blockRate     = 10_000
)

// StartProfiling profiles the process into dir, creating it if needed,
// and returns a stop function that writes the profiles: cpu.pprof runs
// from now to stop; mutex.pprof and block.pprof come from runtime
// samplers armed for the run and disarmed at stop, so the process
// returns to zero overhead; heap.pprof is a snapshot taken at stop after
// a GC, so it reports live objects, not garbage awaiting collection. An
// empty dir profiles nothing. Stop runs every step even when one fails,
// returns their errors joined, and is idempotent: repeat calls return the
// first call's result without re-running the stop work.
func StartProfiling(dir string) (func() error, error) {
	if dir == "" {
		return func() error { return nil }, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	cpu, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(cpu); err != nil {
		cpu.Close()
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	runtime.SetMutexProfileFraction(mutexFraction)
	runtime.SetBlockProfileRate(blockRate)
	return sync.OnceValue(func() error {
		pprof.StopCPUProfile()
		var errs []error
		if err := cpu.Close(); err != nil {
			errs = append(errs, fmt.Errorf("cpu profile: %w", err))
		}
		runtime.GC()
		for _, kind := range []string{"mutex", "block", "heap"} {
			errs = append(errs, writeProfile(kind, filepath.Join(dir, kind+".pprof")))
		}
		runtime.SetMutexProfileFraction(0)
		runtime.SetBlockProfileRate(0)
		return errors.Join(errs...)
	}), nil
}

func writeProfile(kind, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("%s profile: %w", kind, err)
	}
	err = pprof.Lookup(kind).WriteTo(f, 0)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("%s profile: %w", kind, err)
	}
	return nil
}
