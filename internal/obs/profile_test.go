package obs

import (
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

func TestStartProfilingWritesArtifacts(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	stop, err := StartProfilingWith(ProfileConfig{CPUPath: cpu, MemPath: mem})
	if err != nil {
		t.Fatalf("StartProfilingWith: %v", err)
	}
	// Burn a little CPU so the profile has something to sample.
	x := 0.0
	for i := 0; i < 1_000_000; i++ {
		x += float64(i) * 1.000001
	}
	_ = x
	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s missing: %v", p, err)
		}
		if fi.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

func TestStartProfilingStopIdempotent(t *testing.T) {
	dir := t.TempDir()
	stop, err := StartProfilingWith(ProfileConfig{CPUPath: filepath.Join(dir, "cpu.pprof"), MemPath: filepath.Join(dir, "mem.pprof")})
	if err != nil {
		t.Fatalf("StartProfilingWith: %v", err)
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

func TestStartProfilingStopErrorSticky(t *testing.T) {
	dir := t.TempDir()
	// Heap snapshot into a directory that does not exist: stop fails, and
	// every later call reports the same error instead of retrying.
	stop, err := StartProfilingWith(ProfileConfig{CPUPath: "", MemPath: filepath.Join(dir, "missing", "mem.pprof")})
	if err != nil {
		t.Fatalf("StartProfilingWith: %v", err)
	}
	first := stop()
	if first == nil {
		t.Fatal("stop into missing dir should fail")
	}
	if again := stop(); again != first {
		t.Errorf("second stop returned %v, want the sticky %v", again, first)
	}
}

func TestStartProfilingUnwritableCPUPath(t *testing.T) {
	dir := t.TempDir()
	if _, err := StartProfilingWith(ProfileConfig{CPUPath: filepath.Join(dir, "missing", "cpu.pprof"), MemPath: ""}); err == nil {
		t.Fatal("unwritable cpu path should fail at start")
	}
}

func TestStartProfilingWithContentionProfiles(t *testing.T) {
	dir := t.TempDir()
	mutexPath := filepath.Join(dir, "mutex.pprof")
	blockPath := filepath.Join(dir, "block.pprof")
	stop, err := StartProfilingWith(ProfileConfig{MutexPath: mutexPath, BlockPath: blockPath})
	if err != nil {
		t.Fatalf("StartProfilingWith: %v", err)
	}
	if got := runtime.SetMutexProfileFraction(-1); got != 5 {
		t.Errorf("mutex profile fraction while armed = %d, want the default 5", got)
	}
	// Generate some contention so the profiles have a chance to hold
	// samples (emptiness is fine — the writes must still succeed).
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
	for _, p := range []string{mutexPath, blockPath} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s missing: %v", p, err)
		}
		if fi.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

func TestStartProfilingEmptyPathsNoop(t *testing.T) {
	stop, err := StartProfilingWith(ProfileConfig{CPUPath: "", MemPath: ""})
	if err != nil {
		t.Fatalf("StartProfilingWith with no paths: %v", err)
	}
	if err := stop(); err != nil {
		t.Errorf("no-op stop returned %v", err)
	}
}
