package obs

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
)

// ProfileConfig selects which runtime profiles to collect. Any empty
// path skips that profile.
type ProfileConfig struct {
	CPUPath   string
	MemPath   string
	MutexPath string
	BlockPath string
}

// Mutex and block profiling carry a runtime cost while armed, so they are
// sampled: one contended mutex event in mutexFraction, and one sample per
// blockRate nanoseconds of goroutine blocking.
const (
	mutexFraction = 5
	blockRate     = 10_000
)

// StartProfilingWith starts the profiles cfg names and returns a stop
// function that writes them. The CPU profile runs from now to stop; when
// MutexPath or BlockPath is set the matching runtime sampler is armed for
// the run, its profile written at stop and the sampler then disarmed, so
// the process returns to zero overhead; MemPath gets a heap snapshot at
// stop, taken after a GC so it reports live objects, not garbage awaiting
// collection. The stop function is always non-nil and idempotent: repeat
// calls return the first call's result without re-running the stop work.
func StartProfilingWith(cfg ProfileConfig) (func() error, error) {
	var cpuFile *os.File
	if cfg.CPUPath != "" {
		f, err := os.Create(cfg.CPUPath)
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		cpuFile = f
	}
	if cfg.MutexPath != "" {
		runtime.SetMutexProfileFraction(mutexFraction)
	}
	if cfg.BlockPath != "" {
		runtime.SetBlockProfileRate(blockRate)
	}
	var once sync.Once
	var stopErr error
	stop := func() error {
		once.Do(func() {
			if cpuFile != nil {
				pprof.StopCPUProfile()
				if err := cpuFile.Close(); err != nil {
					stopErr = fmt.Errorf("cpu profile: %w", err)
					return
				}
			}
			if cfg.MutexPath != "" {
				err := writeLookupProfile("mutex", cfg.MutexPath)
				runtime.SetMutexProfileFraction(0)
				if err != nil {
					stopErr = err
					return
				}
			}
			if cfg.BlockPath != "" {
				err := writeLookupProfile("block", cfg.BlockPath)
				runtime.SetBlockProfileRate(0)
				if err != nil {
					stopErr = err
					return
				}
			}
			if cfg.MemPath != "" {
				f, err := os.Create(cfg.MemPath)
				if err != nil {
					stopErr = fmt.Errorf("mem profile: %w", err)
					return
				}
				defer f.Close()
				runtime.GC()
				if err := pprof.WriteHeapProfile(f); err != nil {
					stopErr = fmt.Errorf("mem profile: %w", err)
				}
			}
		})
		return stopErr
	}
	return stop, nil
}

func writeLookupProfile(kind, path string) error {
	p := pprof.Lookup(kind)
	if p == nil {
		return fmt.Errorf("%s profile: runtime profile missing", kind)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("%s profile: %w", kind, err)
	}
	defer f.Close()
	if err := p.WriteTo(f, 0); err != nil {
		return fmt.Errorf("%s profile: %w", kind, err)
	}
	return nil
}
