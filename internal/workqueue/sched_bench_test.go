package workqueue

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// Contention benchmarks for the scheduler and the master's bookkeeping,
// each at 1/4/16/64 simulated workers:
//
//	BenchmarkSchedulerPushNext       push → blocking draw, the bare pool
//	BenchmarkSchedulerDispatchAck    submit → draw → in-flight → ack, the
//	                                 master bookkeeping cycle
//	BenchmarkSchedulerMixedContended the above plus priority retunes and
//	                                 stats reads racing each other
//
// scripts/check.sh sched flattens the results into BENCH_sched.json,
// which the benchdiff gate then tracks.

var benchWorkerCounts = []int{1, 4, 16, 64}

// benchJob spreads goroutines over 16 jobs so the weighted pick sees a
// realistic multi-job pool.
func benchJob(g int) string { return fmt.Sprintf("job%d", g%16) }

// benchIDs precomputes a cycle of task IDs per simulated worker so ID
// formatting stays out of the timed loop. A worker has at most one task
// in flight, so reusing an ID after 1024 cycles never collides in the
// in-flight maps.
func benchIDs(workers int) [][]string {
	ids := make([][]string, workers)
	for g := range ids {
		ids[g] = make([]string, 1024)
		for i := range ids[g] {
			ids[g][i] = fmt.Sprintf("w%d-%d", g, i)
		}
	}
	return ids
}

// splitN runs workers goroutines, each executing fn(g, per) where the
// per-goroutine iteration counts sum to at least b.N.
func splitN(b *testing.B, workers int, fn func(g, per int)) {
	per := b.N/workers + 1
	var wg sync.WaitGroup
	b.ResetTimer()
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			fn(g, per)
		}(g)
	}
	wg.Wait()
}

func BenchmarkSchedulerPushNext(b *testing.B) {
	for _, workers := range benchWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			s := newScheduler(1)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			splitN(b, workers, func(g, per int) {
				w := s.getWaiter()
				defer s.putWaiter(w)
				task := Task{ID: "t", JobID: benchJob(g)}
				for i := 0; i < per; i++ {
					s.push(task)
					if _, ok := w.next(ctx); !ok {
						b.Error("draw failed")
						return
					}
				}
			})
		})
	}
}

// benchMasterCycle runs submit → draw → in-flight → ack cycles on a fresh
// master; retune, when set, runs every 64th cycle of each goroutine.
func benchMasterCycle(b *testing.B, workers int, retune func(m *Master, job string, i int)) {
	m := NewMaster(MasterConfig{Seed: 1, ResultBuffer: 256})
	ids := benchIDs(workers)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range m.results {
		}
	}()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	splitN(b, workers, func(g, per int) {
		w := m.sched.getWaiter()
		defer m.sched.putWaiter(w)
		job := benchJob(g)
		for i := 0; i < per; i++ {
			id := ids[g][i%1024]
			if err := m.Submit(Task{ID: id, JobID: job}); err != nil {
				b.Error(err)
				return
			}
			if retune != nil && i%64 == 0 {
				retune(m, job, i)
			}
			task, ok := w.next(ctx)
			if !ok {
				b.Error("draw failed")
				return
			}
			m.trackInflight(task, "bench-worker")
			m.complete(Result{TaskID: task.ID, JobID: task.JobID})
		}
	})
	b.StopTimer()
	m.Shutdown()
	<-done
}

func BenchmarkSchedulerDispatchAck(b *testing.B) {
	for _, workers := range benchWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchMasterCycle(b, workers, nil)
		})
	}
}

func BenchmarkSchedulerMixedContended(b *testing.B) {
	for _, workers := range benchWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchMasterCycle(b, workers, func(m *Master, job string, i int) {
				m.SetJobPriority(job, 1+float64(i%7))
				_ = m.Stats(job)
			})
		})
	}
}
