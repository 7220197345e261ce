package obs

import (
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"testing"
	"time"
)

// profileKinds are the files StartProfiling writes into its directory.
var profileKinds = []string{"cpu", "heap", "mutex", "block"}

func TestStartProfilingWritesArtifacts(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "prof") // created by StartProfiling
	stop, err := StartProfiling(dir)
	if err != nil {
		t.Fatalf("StartProfiling: %v", err)
	}
	if got := runtime.SetMutexProfileFraction(-1); got != 5 {
		t.Errorf("mutex profile fraction while armed = %d, want the default 5", got)
	}
	// Burn a little CPU and contend a mutex so the profiles have a
	// chance to hold samples (emptiness is fine — the writes must still
	// succeed).
	x := 0.0
	for i := 0; i < 1_000_000; i++ {
		x += float64(i) * 1.000001
	}
	_ = x
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 2000; j++ {
				mu.Lock()
				mu.Unlock() //nolint:staticcheck // contention on purpose
			}
		}()
	}
	wg.Wait()
	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	if got := runtime.SetMutexProfileFraction(-1); got != 0 {
		t.Errorf("mutex profile fraction after stop = %d, want disarmed 0", got)
	}
	for _, kind := range profileKinds {
		fi, err := os.Stat(filepath.Join(dir, kind+".pprof"))
		if err != nil {
			t.Fatalf("%s profile missing: %v", kind, err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s profile is empty", kind)
		}
	}
}

func TestStartProfilingStopIdempotent(t *testing.T) {
	stop, err := StartProfiling(t.TempDir())
	if err != nil {
		t.Fatalf("StartProfiling: %v", err)
	}
	if err := stop(); err != nil {
		t.Fatalf("first stop: %v", err)
	}
	// A second (or concurrent) stop must not re-run the stop work: no
	// double StopCPUProfile, no double close, same result back.
	for i := 0; i < 3; i++ {
		if err := stop(); err != nil {
			t.Fatalf("repeat stop %d returned %v, want nil", i, err)
		}
	}
}

// TestStartProfilingStopRunsEveryStep makes one profile unwritable: stop
// reports it, every other profile is still written, both runtime
// samplers end disarmed, and later calls return the same error instead
// of retrying.
func TestStartProfilingStopRunsEveryStep(t *testing.T) {
	for _, bad := range []string{"mutex", "block", "heap"} {
		dir := t.TempDir()
		// A directory where the profile file should go cannot be created.
		if err := os.Mkdir(filepath.Join(dir, bad+".pprof"), 0o755); err != nil {
			t.Fatal(err)
		}
		stop, err := StartProfiling(dir)
		if err != nil {
			t.Fatalf("StartProfiling: %v", err)
		}
		first := stop()
		if first == nil {
			t.Fatalf("%s: stop with an unwritable profile path should fail", bad)
		}
		if again := stop(); again != first {
			t.Errorf("%s: second stop returned %v, want the sticky %v", bad, again, first)
		}
		if got := runtime.SetMutexProfileFraction(-1); got != 0 {
			t.Errorf("%s: mutex profile fraction after stop = %d, want disarmed 0", bad, got)
		}
		// The block rate has no getter: a disarmed sampler records no
		// new sample for a goroutine blocked far past blockRate.
		before := pprof.Lookup("block").Count()
		ch := make(chan struct{})
		time.AfterFunc(5*time.Millisecond, func() { close(ch) })
		<-ch
		if after := pprof.Lookup("block").Count(); after != before {
			t.Errorf("%s: block profile grew %d -> %d after stop; sampler still armed", bad, before, after)
		}
		for _, kind := range profileKinds {
			if kind == bad {
				continue
			}
			fi, err := os.Stat(filepath.Join(dir, kind+".pprof"))
			if err != nil {
				t.Errorf("%s unwritable: %s profile missing: %v", bad, kind, err)
				continue
			}
			if fi.Size() == 0 {
				t.Errorf("%s unwritable: %s profile is empty", bad, kind)
			}
		}
	}
}

func TestStartProfilingUnwritableCPUPath(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "cpu.pprof"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := StartProfiling(dir); err == nil {
		t.Fatal("unwritable cpu path should fail at start")
	}
	if got := runtime.SetMutexProfileFraction(-1); got != 0 {
		t.Errorf("a failed start armed the mutex sampler (fraction %d)", got)
	}
}

func TestStartProfilingEmptyDirNoop(t *testing.T) {
	stop, err := StartProfiling("")
	if err != nil {
		t.Fatalf("StartProfiling with no directory: %v", err)
	}
	if err := stop(); err != nil {
		t.Errorf("no-op stop returned %v", err)
	}
}
