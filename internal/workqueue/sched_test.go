package workqueue

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestSchedulerNextAllocFree is the satellite regression for the old
// idle-worker loop allocating a context.AfterFunc stop closure per next
// call: a steady push/draw cycle through a leased waiter must not
// allocate at all, cancellable context included.
func TestSchedulerNextAllocFree(t *testing.T) {
	s := newScheduler(7)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := s.getWaiter()
	defer s.putWaiter(w)
	// Warm up: create the job entry, grow the queue/order capacity and
	// materialize ctx.Done()'s channel.
	s.push(Task{ID: "warm", JobID: "j"})
	if _, ok := w.next(ctx); !ok {
		t.Fatal("warmup draw failed")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		s.push(Task{ID: "t", JobID: "j"})
		if _, ok := w.next(ctx); !ok {
			t.Fatal("draw failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("push+next allocates %.1f allocs/op, want 0", allocs)
	}
	tryAllocs := testing.AllocsPerRun(1000, func() {
		s.push(Task{ID: "t", JobID: "j"})
		if _, ok := s.tryNext(); !ok {
			t.Fatal("tryNext failed")
		}
	})
	if tryAllocs != 0 {
		t.Fatalf("push+tryNext allocates %.1f allocs/op, want 0", tryAllocs)
	}
}

// TestSchedulerWeightedFairness is the chi-squared check that draw
// frequencies track the paper's P_u = T_u / sum T_u weights.
func TestSchedulerWeightedFairness(t *testing.T) {
	s := newScheduler(3)
	priorities := []float64{5, 3, 1, 1, 0.5, 0.25}
	jobs := make([]string, len(priorities))
	total := 0.0
	for i, p := range priorities {
		jobs[i] = fmt.Sprintf("job%d", i)
		s.setPriority(jobs[i], p)
		total += p
	}
	const trials = 4000
	counts := make(map[string]int, len(jobs))
	for trial := 0; trial < trials; trial++ {
		// One queued task per job, then a single counted draw: the first
		// draw of each round samples the full weighted distribution.
		for _, id := range jobs {
			s.push(Task{ID: fmt.Sprintf("%s-%d", id, trial), JobID: id})
		}
		task, ok := s.tryNext()
		if !ok {
			t.Fatal("draw from non-empty pool failed")
		}
		counts[task.JobID]++
		for {
			if _, ok := s.tryNext(); !ok {
				break
			}
		}
	}
	chi2 := 0.0
	for i, id := range jobs {
		expected := float64(trials) * priorities[i] / total
		d := float64(counts[id]) - expected
		chi2 += d * d / expected
	}
	// 5 degrees of freedom: chi2 > 30 has p < 1.5e-5 — with the fixed
	// seed this is fully deterministic, the bound just documents margin.
	if chi2 > 30 {
		t.Fatalf("chi-squared = %.1f (counts %v): draws do not track P_u", chi2, counts)
	}
}

// TestSchedulerLowPriorityJobNotStarved queues the lone task of a job at
// the priority floor behind 500 tasks of a priority-1000 job and requires
// it to come out within the drain: the weighted pick may make a job wait,
// never lose it.
func TestSchedulerLowPriorityJobNotStarved(t *testing.T) {
	s := newScheduler(11)
	s.setPriority("hot", 1000)
	s.setPriority("cold", 1e-9) // clamped to the 1e-6 floor
	const hotTasks = 500
	for i := 0; i < hotTasks; i++ {
		s.push(Task{ID: fmt.Sprintf("h%d", i), JobID: "hot"})
	}
	s.push(Task{ID: "the-cold-one", JobID: "cold"})
	seenCold := false
	for i := 0; i < hotTasks+1; i++ {
		task, ok := s.tryNext()
		if !ok {
			t.Fatalf("pool dried up after %d draws with %d queued", i, s.len())
		}
		if task.JobID == "cold" {
			seenCold = true
		}
	}
	if !seenCold {
		t.Fatal("the low-priority job's task never delivered — starved")
	}
	if s.len() != 0 {
		t.Fatalf("queue not drained: %d left", s.len())
	}
}

// TestSchedulerCancelKeepsHandoffAtHead drives next's cancel branch for a
// waiter a pusher has already handed a task: the task goes back to the
// head of its job's queue, ahead of the job's task queued since, so FIFO
// within a job survives a worker released or lost mid-handoff.
func TestSchedulerCancelKeepsHandoffAtHead(t *testing.T) {
	s := newScheduler(1)
	w := s.getWaiter()
	defer s.putWaiter(w)
	if _, _, parked := w.takeOrPark(context.Background()); !parked {
		t.Fatal("waiter did not park on an empty pool")
	}
	s.push(Task{ID: "t0", JobID: "j"}) // handed to the parked waiter
	s.push(Task{ID: "t1", JobID: "j"}) // queued: nobody is parked
	if _, ok := w.cancel(); ok {
		t.Fatal("cancelled draw returned a task")
	}
	for _, want := range []string{"t0", "t1"} {
		task, ok := s.tryNext()
		if !ok || task.ID != want {
			t.Fatalf("drew %q (ok %v), want %s", task.ID, ok, want)
		}
	}
}

// TestSchedulerLoadSweep100k is the sched tier's load sweep: 100k claim
// draws through the pool at each simulated-worker count, with
// exactly-once delivery and a full drain asserted at every step. The
// per-step throughput lands in the -v log next to BENCH_sched.json.
func TestSchedulerLoadSweep100k(t *testing.T) {
	const claims = 100_000
	if testing.Short() {
		t.Skip("100k-claim sweep skipped in -short mode")
	}
	for _, workers := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			s := newScheduler(9)
			var delivered sync.WaitGroup
			delivered.Add(claims)
			var wg sync.WaitGroup
			start := time.Now()
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					w := s.getWaiter()
					defer s.putWaiter(w)
					for {
						if _, ok := w.next(context.Background()); !ok {
							return
						}
						delivered.Done()
					}
				}()
			}
			for i := 0; i < claims; i++ {
				s.push(Task{ID: fmt.Sprintf("c%d", i), JobID: fmt.Sprintf("job%d", i%64)})
			}
			delivered.Wait()
			elapsed := time.Since(start)
			s.close()
			wg.Wait()
			if s.len() != 0 {
				t.Fatalf("pool not drained: %d left", s.len())
			}
			t.Logf("%d claims, %d workers: %.0f claims/s (%s)",
				claims, workers, claims/elapsed.Seconds(), elapsed.Round(time.Millisecond))
		})
	}
}

// TestSchedulerConcurrentExactlyOnce hammers the pool from concurrent
// pushers and waiter-holding workers and checks every task is delivered
// exactly once — the invariant the handoff/park protocol must keep under
// races (run under -race in the race tier).
func TestSchedulerConcurrentExactlyOnce(t *testing.T) {
	const (
		pushers        = 4
		workers        = 8
		tasksPerPusher = 500
		jobs           = 16
	)
	s := newScheduler(5)
	delivered := make(chan string, pushers*tasksPerPusher)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := s.getWaiter()
			defer s.putWaiter(w)
			for {
				task, ok := w.next(context.Background())
				if !ok {
					return
				}
				delivered <- task.ID
			}
		}()
	}
	for g := 0; g < pushers; g++ {
		go func(g int) {
			for i := 0; i < tasksPerPusher; i++ {
				s.push(Task{
					ID:    fmt.Sprintf("p%d-t%d", g, i),
					JobID: fmt.Sprintf("job%d", (g*tasksPerPusher+i)%jobs),
				})
			}
		}(g)
	}
	seen := make(map[string]bool, pushers*tasksPerPusher)
	for n := 0; n < pushers*tasksPerPusher; n++ {
		id := <-delivered
		if seen[id] {
			t.Fatalf("task %s delivered twice", id)
		}
		seen[id] = true
	}
	s.close()
	wg.Wait()
	close(delivered)
	for id := range delivered {
		t.Fatalf("task %s delivered after close beyond the pushed set", id)
	}
	if queues, _ := s.jobStateSizes(); queues != 0 || s.len() != 0 {
		t.Fatalf("pool not drained: %d queued jobs, len %d", queues, s.len())
	}
}
