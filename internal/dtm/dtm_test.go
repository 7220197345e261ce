package dtm

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/social-sensing/sstd/internal/core"
	"github.com/social-sensing/sstd/internal/socialsensing"
)

func origin() time.Time { return time.Date(2016, 9, 30, 12, 0, 0, 0, time.UTC) }

// minuteStarts is the starts of n one-minute intervals from origin.
func minuteStarts(n int) []time.Time { return core.NewGrid(origin(), time.Minute).Starts(nil, n) }

// flipReports builds reports for one claim whose truth flips at
// flipMinute over the given number of minutes.
func flipReports(claim socialsensing.ClaimID, minutes, flipMinute, perMinute int, noise float64, seed int64) []socialsensing.Report {
	rng := rand.New(rand.NewSource(seed))
	var out []socialsensing.Report
	for m := 0; m < minutes; m++ {
		truthTrue := m < flipMinute
		for k := 0; k < perMinute; k++ {
			correct := rng.Float64() >= noise
			att := socialsensing.Disagree
			if truthTrue == correct {
				att = socialsensing.Agree
			}
			out = append(out, socialsensing.Report{
				Source:       socialsensing.SourceID(fmt.Sprintf("s%d", k)),
				Claim:        claim,
				Timestamp:    origin().Add(time.Duration(m) * time.Minute),
				Attitude:     att,
				Uncertainty:  0.1,
				Independence: 0.9,
			})
		}
	}
	return out
}

// newLocalEngine builds the in-process SSTD engine with the same pipeline
// parameters as the manager config, for equivalence checks.
func newLocalEngine(t *testing.T, cfg Config) *core.Engine {
	t.Helper()
	eng, err := core.NewEngine(core.Config{ACS: cfg.ACS, Decoder: cfg.Decoder, Origin: cfg.Origin})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func drain(t *testing.T, m *Manager, n int) []JobResult {
	t.Helper()
	out := make([]JobResult, 0, n)
	timeout := time.After(30 * time.Second)
	for len(out) < n {
		select {
		case r, ok := <-m.Results():
			if !ok {
				t.Fatalf("results closed at %d/%d", len(out), n)
			}
			out = append(out, r)
		case <-timeout:
			t.Fatalf("timed out at %d/%d results", len(out), n)
		}
	}
	return out
}

func TestManagerEndToEnd(t *testing.T) {
	cfg := DefaultConfig(origin())
	cfg.ACS.WindowIntervals = 3
	cfg.Workers = 4
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start(context.Background())
	defer m.Close()

	const minutes, flip = 60, 30
	if err := m.SubmitJob("c1", flipReports("c1", minutes, flip, 8, 0.15, 42), 0); err != nil {
		t.Fatal(err)
	}
	res := drain(t, m, 1)[0]
	if res.Err != nil {
		t.Fatalf("job error: %v", res.Err)
	}
	if res.Claim != "c1" {
		t.Errorf("claim = %s", res.Claim)
	}
	if len(res.Estimates) != minutes {
		t.Fatalf("estimates = %d, want %d", len(res.Estimates), minutes)
	}
	correct := 0
	for i, es := range res.Estimates {
		want := socialsensing.False
		if i < flip {
			want = socialsensing.True
		}
		if es.Value == want {
			correct++
		}
	}
	if acc := float64(correct) / float64(minutes); acc < 0.85 {
		t.Errorf("distributed decode accuracy = %.2f, want >= 0.85", acc)
	}
	if !res.MetDeadline {
		t.Error("job with no deadline reported a miss")
	}
}

func TestManagerMatchesSingleNodeEngine(t *testing.T) {
	// The distributed path (split -> partial sums -> merge -> decode)
	// must produce exactly the same estimates as the in-process engine.
	cfg := DefaultConfig(origin())
	cfg.ACS.WindowIntervals = 3
	cfg.TasksPerJob = 5
	reports := flipReports("c1", 40, 20, 6, 0.1, 7)

	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start(context.Background())
	defer m.Close()
	if err := m.SubmitJob("c1", reports, 0); err != nil {
		t.Fatal(err)
	}
	distributed := drain(t, m, 1)[0]
	if distributed.Err != nil {
		t.Fatal(distributed.Err)
	}

	ecfg := struct {
		got []socialsensing.TruthValue
	}{}
	eng := newLocalEngine(t, cfg)
	for _, r := range reports {
		if err := eng.Ingest(r); err != nil {
			t.Fatal(err)
		}
	}
	est, err := eng.DecodeClaim("c1")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range est {
		ecfg.got = append(ecfg.got, e.Value)
	}
	var dgot []socialsensing.TruthValue
	for _, e := range distributed.Estimates {
		dgot = append(dgot, e.Value)
	}
	if !reflect.DeepEqual(ecfg.got, dgot) {
		t.Errorf("distributed decode differs from local engine:\nlocal = %v\ndist  = %v", ecfg.got, dgot)
	}
}

func TestManagerMultipleJobs(t *testing.T) {
	cfg := DefaultConfig(origin())
	cfg.Workers = 6
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start(context.Background())
	defer m.Close()
	const jobs = 8
	for i := 0; i < jobs; i++ {
		claim := socialsensing.ClaimID(fmt.Sprintf("claim-%d", i))
		if err := m.SubmitJob(claim, flipReports(claim, 30, 10+i, 5, 0.1, int64(i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	results := drain(t, m, jobs)
	seen := make(map[socialsensing.ClaimID]bool)
	for _, r := range results {
		if r.Err != nil {
			t.Errorf("job %s error: %v", r.Claim, r.Err)
		}
		seen[r.Claim] = true
	}
	if len(seen) != jobs {
		t.Errorf("distinct completed jobs = %d, want %d", len(seen), jobs)
	}
}

func TestManagerDeadlines(t *testing.T) {
	cfg := DefaultConfig(origin())
	cfg.Workers = 2
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start(context.Background())
	defer m.Close()
	reports := flipReports("c", 20, 10, 4, 0.1, 1)
	// Generous deadline: met. (1 ns deadline: missed.)
	if err := m.SubmitJob("c", reports, time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := m.SubmitJob("c2", reports, time.Nanosecond); err != nil {
		t.Fatal(err)
	}
	results := drain(t, m, 2)
	for _, r := range results {
		switch r.Claim {
		case "c":
			if !r.MetDeadline {
				t.Error("1h deadline missed")
			}
		case "c2":
			if r.MetDeadline {
				t.Error("1ns deadline met (impossible)")
			}
		}
	}
}

func TestManagerDuplicateJobRejected(t *testing.T) {
	cfg := DefaultConfig(origin())
	cfg.WorkDelay = time.Millisecond // keep the first job in flight
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start(context.Background())
	defer m.Close()
	if err := m.SubmitJob("dup", flipReports("dup", 5, 2, 2, 0, 1), 0); err != nil {
		t.Fatal(err)
	}
	if err := m.SubmitJob("dup", nil, 0); err == nil {
		t.Error("duplicate job accepted")
	}
	drain(t, m, 1)
}

func TestManagerEmptyJob(t *testing.T) {
	m, err := New(DefaultConfig(origin()))
	if err != nil {
		t.Fatal(err)
	}
	m.Start(context.Background())
	defer m.Close()
	if err := m.SubmitJob("empty", nil, 0); err != nil {
		t.Fatal(err)
	}
	res := drain(t, m, 1)[0]
	if res.Err != nil {
		t.Errorf("empty job error: %v", res.Err)
	}
	if len(res.Estimates) != 0 {
		t.Errorf("empty job estimates = %v", res.Estimates)
	}
}

func TestManagerControlLoopAdjustsPool(t *testing.T) {
	cfg := DefaultConfig(origin())
	cfg.Workers = 1
	cfg.EnableControl = true
	cfg.SampleEvery = 20 * time.Millisecond
	cfg.WorkDelay = 2 * time.Millisecond // make work visible to the monitor
	cfg.Tuner.MaxWorkers = 16
	// Calibrate WCET so the model predicts lateness under the tight
	// deadline below.
	cfg.WCET.Theta2 = 10 * time.Millisecond
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start(context.Background())
	defer m.Close()

	for i := 0; i < 4; i++ {
		claim := socialsensing.ClaimID(fmt.Sprintf("c%d", i))
		if err := m.SubmitJob(claim, flipReports(claim, 20, 10, 10, 0.1, int64(i)), 300*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	// The controller grows the pool while jobs are predicted late and
	// may legitimately shrink it back once the backlog clears, so track
	// the peak while draining.
	maxWorkers := m.Workers()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-done:
				return
			default:
			}
			if w := m.Workers(); w > maxWorkers {
				maxWorkers = w
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	results := drain(t, m, 4)
	done <- struct{}{}
	<-done
	for _, r := range results {
		if r.Err != nil {
			t.Errorf("job %s: %v", r.Claim, r.Err)
		}
	}
	if maxWorkers <= 1 {
		t.Errorf("control loop never grew the pool: peak %d workers", maxWorkers)
	}
}

func TestManagerProgress(t *testing.T) {
	cfg := DefaultConfig(origin())
	cfg.Workers = 1
	cfg.WorkDelay = time.Millisecond // keep the job in flight briefly
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start(context.Background())
	defer m.Close()
	if err := m.SubmitJob("slow", flipReports("slow", 10, 5, 5, 0.1, 1), time.Minute); err != nil {
		t.Fatal(err)
	}
	// Shortly after submission the job must be visible in Progress.
	deadline := time.Now().Add(5 * time.Second)
	var seen bool
	for time.Now().Before(deadline) {
		prog := m.Progress()
		if len(prog) == 1 {
			p := prog[0]
			// Four scatter tasks and the decode task that follows them.
			if p.Claim != "slow" || p.Tasks != cfg.TasksPerJob+1 || p.TasksDone > p.Tasks || p.Deadline != time.Minute {
				t.Fatalf("progress = %+v", p)
			}
			seen = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !seen {
		t.Fatal("job never appeared in Progress")
	}
	drain(t, m, 1)
	if got := m.Progress(); len(got) != 0 {
		t.Errorf("completed job still in Progress: %+v", got)
	}
}

func TestManagerValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("zero config accepted")
	}
	cfg := DefaultConfig(origin())
	cfg.Workers = -1
	if _, err := New(cfg); err == nil {
		t.Error("negative worker count accepted")
	}
	cfg.Workers, cfg.EnableControl = 0, true
	if _, err := New(cfg); err == nil {
		t.Error("control loop accepted with no pool to resize")
	}
	cfg = DefaultConfig(origin())
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start(context.Background())
	defer m.Close()
	if err := m.SubmitJob("", nil, 0); err == nil {
		t.Error("empty claim accepted")
	}
}

func TestSplitReports(t *testing.T) {
	mk := func(n int) []socialsensing.Report {
		rs := make([]socialsensing.Report, n)
		for i := range rs {
			rs[i].Source = socialsensing.SourceID(fmt.Sprintf("s%d", i))
		}
		return rs
	}
	tests := []struct {
		n, chunks int
		sizes     []int
	}{
		{10, 4, []int{3, 3, 2, 2}},
		{3, 4, []int{1, 1, 1}},
		{0, 4, []int{0}},
		{5, 1, []int{5}},
		{7, 0, []int{7}},
	}
	for _, tt := range tests {
		got := splitReports(mk(tt.n), tt.chunks)
		var sizes []int
		total := 0
		for _, c := range got {
			sizes = append(sizes, len(c))
			total += len(c)
		}
		if !reflect.DeepEqual(sizes, tt.sizes) {
			t.Errorf("splitReports(%d, %d) sizes = %v, want %v", tt.n, tt.chunks, sizes, tt.sizes)
		}
		if total != tt.n {
			t.Errorf("splitReports(%d, %d) lost reports: %d", tt.n, tt.chunks, total)
		}
	}
}

func TestWindowedSeries(t *testing.T) {
	// The worker windows the merged sums with core.Window, in score units.
	one := int64(core.ScoreOne)
	out := outputOf(map[int]int64{0: one, 1: one, 3: -one})
	decode := append(appendDecodeHeader(nil, 2, DefaultConfig(origin()).Decoder), out...)
	var got []float64
	if _, err := readDecodeTask(decode, &got); err != nil {
		t.Fatal(err)
	}
	if want := []float64{1, 2, 1, -1}; !reflect.DeepEqual(got, want) {
		t.Errorf("decode task series = %v, want %v", got, want)
	}
	// A decode task never carries a window under one interval: the header
	// clamps it, as the master-side window always was.
	_, window, _, err := parseDecodeHeader(appendDecodeHeader(nil, 0, DefaultConfig(origin()).Decoder))
	if err != nil || window != 1 {
		t.Errorf("window 0 travels as %d, %v; want 1", window, err)
	}
}
