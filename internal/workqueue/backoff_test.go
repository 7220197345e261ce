package workqueue

import (
	"math/rand"
	"testing"
	"time"
)

func TestBackoffDelayGrowthAndCap(t *testing.T) {
	c := BackoffConfig{Base: 10 * time.Millisecond, Max: 100 * time.Millisecond, Factor: 2}
	want := []time.Duration{
		10 * time.Millisecond,  // attempt 1
		20 * time.Millisecond,  // attempt 2
		40 * time.Millisecond,  // attempt 3
		80 * time.Millisecond,  // attempt 4
		100 * time.Millisecond, // attempt 5 capped (would be 160ms)
		100 * time.Millisecond, // stays capped
	}
	for i, w := range want {
		if got := c.Delay(i+1, nil); got != w {
			t.Errorf("attempt %d: got %v, want %v", i+1, got, w)
		}
	}
	// Out-of-range attempts clamp to the first delay.
	if got := c.Delay(0, nil); got != 10*time.Millisecond {
		t.Errorf("attempt 0: got %v, want base", got)
	}
	if got := c.Delay(-3, nil); got != 10*time.Millisecond {
		t.Errorf("attempt -3: got %v, want base", got)
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	c := BackoffConfig{Base: 100 * time.Millisecond, Max: time.Second, Factor: 2, Jitter: 0.2}
	rng := rand.New(rand.NewSource(42))
	base := float64(100 * time.Millisecond)
	lo := time.Duration(base * 0.9)
	hi := time.Duration(base * 1.1)
	varied := false
	prev := time.Duration(-1)
	for i := 0; i < 1000; i++ {
		d := c.Delay(1, rng)
		if d < lo || d > hi {
			t.Fatalf("draw %d: %v outside [%v, %v]", i, d, lo, hi)
		}
		if prev >= 0 && d != prev {
			varied = true
		}
		prev = d
	}
	if !varied {
		t.Fatal("jittered delays never varied")
	}
	// Same seed → same draw sequence (retry schedules stay reproducible).
	a := c.Delay(3, rand.New(rand.NewSource(7)))
	b := c.Delay(3, rand.New(rand.NewSource(7)))
	if a != b {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
	// Nil rng means no jitter at all.
	if got := c.Delay(1, nil); got != 100*time.Millisecond {
		t.Fatalf("nil rng: got %v, want exact base", got)
	}
}

func TestBackoffDisabled(t *testing.T) {
	c := BackoffConfig{Base: -1}
	if !c.disabled() {
		t.Fatal("negative Base must read as disabled")
	}
	for attempt := 1; attempt < 5; attempt++ {
		if got := c.Delay(attempt, nil); got != 0 {
			t.Fatalf("disabled backoff attempt %d: got %v, want 0", attempt, got)
		}
	}
	if (BackoffConfig{}).disabled() {
		t.Fatal("zero value must not read as disabled — it means defaults")
	}
}

func TestBackoffWithDefaults(t *testing.T) {
	got := BackoffConfig{}.withDefaults(5*time.Millisecond, time.Second)
	if got.Base != 5*time.Millisecond || got.Max != time.Second || got.Factor != 2 {
		t.Fatalf("zero config defaults wrong: %+v", got)
	}
	// Explicit fields survive.
	c := BackoffConfig{Base: time.Millisecond, Max: 10 * time.Millisecond, Factor: 3, Jitter: 0.5}
	got = c.withDefaults(5*time.Millisecond, time.Second)
	if got != c {
		t.Fatalf("explicit config clobbered: %+v", got)
	}
	// Invalid jitter is dropped to zero, invalid factor to 2.
	got = BackoffConfig{Base: time.Millisecond, Jitter: 1.5, Factor: 0.5}.withDefaults(5*time.Millisecond, time.Second)
	if got.Jitter != 0 || got.Factor != 2 {
		t.Fatalf("invalid jitter/factor not sanitized: %+v", got)
	}
	// Disabled passes through untouched.
	if !(BackoffConfig{Base: -1}).withDefaults(5*time.Millisecond, time.Second).disabled() {
		t.Fatal("withDefaults must preserve disabled state")
	}
}

// TestReconnectBackoffSchedule pins the worker's redial pacing: 50 ms
// doubling to a 5 s cap, each delay jittered by at most ±10%.
func TestReconnectBackoffSchedule(t *testing.T) {
	want := []time.Duration{
		50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond,
		400 * time.Millisecond, 800 * time.Millisecond, 1600 * time.Millisecond,
		3200 * time.Millisecond, 5 * time.Second, 5 * time.Second,
	}
	rng := rand.New(rand.NewSource(7))
	for i, w := range want {
		if got := reconnectBackoff.Delay(i+1, nil); got != w {
			t.Errorf("attempt %d: got %v, want %v", i+1, got, w)
		}
		lo, hi := time.Duration(float64(w)*0.9), time.Duration(float64(w)*1.1)
		if got := reconnectBackoff.Delay(i+1, rng); got < lo || got > hi {
			t.Errorf("attempt %d jittered: got %v, want in [%v, %v]", i+1, got, lo, hi)
		}
	}
}
