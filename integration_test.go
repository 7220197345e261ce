package sstd_test

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/social-sensing/sstd"
	"github.com/social-sensing/sstd/internal/baselines"
	"github.com/social-sensing/sstd/internal/core"
	"github.com/social-sensing/sstd/internal/dtm"
	"github.com/social-sensing/sstd/internal/evalmetrics"
	"github.com/social-sensing/sstd/internal/socialsensing"
	"github.com/social-sensing/sstd/internal/stream"
	"github.com/social-sensing/sstd/internal/tracegen"
	"github.com/social-sensing/sstd/internal/workqueue"
)

// TestFullRawTextPipeline drives the complete system the way the paper's
// deployment would: synthetic tweets -> keyword filter + online clustering
// (claims) -> semantic scoring (contribution scores) -> HMM engine
// (decoded truth), and checks the decoded timelines against ground truth
// through the cluster/claim correspondence.
func TestFullRawTextPipeline(t *testing.T) {
	prof := sstd.ParisShootingProfile()
	gen, err := sstd.NewTraceGenerator(prof, 5)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := gen.Generate(0.005)
	if err != nil {
		t.Fatal(err)
	}

	clusterCfg := sstd.DefaultClusterConfig()
	clusterCfg.Keywords = prof.Keywords
	clusterer := sstd.NewClusterer(clusterCfg)
	scorer := sstd.NewScorer()

	engCfg := sstd.DefaultConfig(trace.Start)
	engCfg.ACS.Interval = trace.Duration() / 80
	engine, err := sstd.NewEngine(engCfg)
	if err != nil {
		t.Fatal(err)
	}

	// Track which true claim dominates each discovered cluster so the
	// decoded timeline can be scored against real ground truth.
	clusterToClaim := make(map[sstd.ClaimID]map[sstd.ClaimID]int)
	kept := 0
	for _, raw := range trace.Reports {
		clusterID, ok := clusterer.Assign(raw.Text, raw.Timestamp)
		if !ok {
			continue
		}
		kept++
		cid := sstd.ClaimID(clusterID)
		report := scorer.ScorePost(sstd.Post{
			Source: raw.Source, Claim: cid, Timestamp: raw.Timestamp, Text: raw.Text,
		})
		if err := engine.Ingest(report); err != nil {
			t.Fatal(err)
		}
		if clusterToClaim[cid] == nil {
			clusterToClaim[cid] = make(map[sstd.ClaimID]int)
		}
		clusterToClaim[cid][raw.Claim]++
	}
	if kept < len(trace.Reports)/2 {
		t.Fatalf("keyword filter kept only %d/%d posts", kept, len(trace.Reports))
	}

	decoded, err := engine.DecodeAll()
	if err != nil {
		t.Fatal(err)
	}

	correct, total := 0, 0
	for cid, counts := range clusterToClaim {
		// Majority true claim for the cluster, and its share (cluster
		// purity): only score reasonably pure clusters.
		var majority sstd.ClaimID
		best, sum := 0, 0
		for claim, n := range counts {
			sum += n
			if n > best {
				best, majority = n, claim
			}
		}
		if sum < 30 || float64(best)/float64(sum) < 0.8 {
			continue
		}
		est := decoded[cid]
		if len(est) == 0 {
			continue
		}
		for _, e := range est {
			truth, ok := trace.TruthAt(majority, e.Start)
			if !ok {
				continue
			}
			total++
			if e.Value == truth {
				correct++
			}
		}
	}
	if total == 0 {
		t.Fatal("no pure clusters to score")
	}
	if acc := float64(correct) / float64(total); acc < 0.7 {
		t.Errorf("end-to-end raw-text accuracy = %.3f over %d samples, want >= 0.7", acc, total)
	}
}

// TestDistributedMatchesLocalOverTCP runs the identical TD workload
// through the in-process engine and through a dtm.Manager serving two
// workers over real TCP connections, checking the decoded truth agrees.
func TestDistributedMatchesLocalOverTCP(t *testing.T) {
	gen, err := tracegen.New(tracegen.CollegeFootball(), 3)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := gen.Generate(0.002)
	if err != nil {
		t.Fatal(err)
	}
	width := tr.Duration() / 60

	// Local decode.
	cfg := core.DefaultConfig(tr.Start)
	cfg.ACS.Interval = width
	eng, err := core.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.IngestAll(tr.Reports); err != nil {
		t.Fatal(err)
	}
	local, err := eng.DecodeAll()
	if err != nil {
		t.Fatal(err)
	}

	// Distributed: the manager sstd-master runs — no in-process pool, a
	// real TCP listener — with two workers running sstd-worker's executor.
	mcfg := dtm.DefaultConfig(tr.Start)
	mcfg.ACS = cfg.ACS
	mcfg.TasksPerJob = 2
	mcfg.Workers = 0
	mcfg.Seed = 1
	m, err := dtm.New(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.Start(ctx)
	defer m.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	m.Serve(l)
	for i := 0; i < 2; i++ {
		go func(i int) {
			w := &workqueue.Worker{ID: fmt.Sprintf("itw-%d", i), Exec: dtm.ExecuteTask}
			_ = w.Dial(ctx, l.Addr().String())
		}(i)
	}
	byClaim := tr.ReportsByClaim()
	for claim, reports := range byClaim {
		if err := m.SubmitJob(claim, reports, 0); err != nil {
			t.Fatal(err)
		}
	}
	timeout := time.After(30 * time.Second)
	for finished := 0; finished < len(byClaim); finished++ {
		select {
		case res := <-m.Results():
			if res.Err != nil || res.Degraded {
				t.Fatalf("job %s: err=%v degraded=%t", res.Claim, res.Err, res.Degraded)
			}
			localEst := local[res.Claim]
			if len(localEst) != len(res.Estimates) {
				t.Fatalf("claim %s length mismatch: %d vs %d", res.Claim, len(localEst), len(res.Estimates))
			}
			for i, e := range res.Estimates {
				if e.Value != localEst[i].Value {
					t.Fatalf("claim %s interval %d: distributed %v vs local %v", res.Claim, i, e.Value, localEst[i].Value)
				}
			}
		case <-timeout:
			t.Fatalf("timed out with %d/%d jobs", finished, len(byClaim))
		}
	}
}

// TestCLIMasterTruthIndependentOfWorkerCount runs the real sstd-master and
// sstd-worker binaries over TCP with one worker, with three, and with two
// fed eight tasks to a frame, and requires the printed per-claim truth to
// be identical: the master folds task outputs in chunk order, not in the
// order workers happen to answer or the frames they arrive in.
func TestCLIMasterTruthIndependentOfWorkerCount(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI binaries")
	}
	dir := buildCLI(t, "sstd-master", "sstd-worker")
	run := func(workers int, extra ...string) []string {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		master := exec.CommandContext(ctx, filepath.Join(dir, "sstd-master"), append([]string{
			"-listen", "127.0.0.1:0", "-trace", "boston", "-scale", "0.005", "-seed", "3",
			"-tasks-per-job", "8", "-min-workers", strconv.Itoa(workers), "-log-level", "error"}, extra...)...)
		stdout, err := master.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := master.Start(); err != nil {
			t.Fatal(err)
		}
		var truth []string
		lines := bufio.NewScanner(stdout)
		for lines.Scan() {
			line := lines.Text()
			if addr, ok := strings.CutPrefix(line, "listening on "); ok {
				addr, _, _ = strings.Cut(addr, ",")
				for i := 0; i < workers; i++ {
					w := exec.CommandContext(ctx, filepath.Join(dir, "sstd-worker"),
						"-master", addr, "-id", fmt.Sprintf("w%d", i), "-log-level", "error")
					if err := w.Start(); err != nil {
						t.Fatal(err)
					}
					defer func() { _ = w.Wait() }()
				}
			}
			if strings.HasPrefix(line, "job ") {
				truth = append(truth, line)
			}
		}
		if err := master.Wait(); err != nil {
			t.Fatalf("sstd-master with %d workers: %v", workers, err)
		}
		sort.Strings(truth)
		return truth
	}
	// A soft deadline changes what is counted, never what is printed.
	one, three, batched := run(1), run(3, "-deadline", "10s"), run(2, "-batch", "8")
	if len(one) == 0 {
		t.Fatal("sstd-master printed no job lines")
	}
	if !reflect.DeepEqual(one, three) {
		t.Errorf("printed truth depends on the worker count:\n1 worker:  %q\n3 workers: %q", one, three)
	}
	if !reflect.DeepEqual(one, batched) {
		t.Errorf("printed truth depends on task batching:\nlock-step: %q\n-batch 8:  %q", one, batched)
	}
}

// buildCLI builds the named commands into a fresh directory.
func buildCLI(t *testing.T, names ...string) string {
	t.Helper()
	dir := t.TempDir()
	for _, name := range names {
		if out, err := exec.Command("go", "build", "-o", filepath.Join(dir, name), "./cmd/"+name).CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, out)
		}
	}
	return dir
}

// TestCLIMasterInterrupt sends SIGINT to an sstd-master still waiting for
// its first worker: it must exit within 5 s, non-zero, with the requested
// trace file and all four -profile files written.
func TestCLIMasterInterrupt(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI binary")
	}
	dir := buildCLI(t, "sstd-master")
	traceOut := filepath.Join(dir, "trace.json")
	profDir := filepath.Join(dir, "prof")
	master := exec.Command(filepath.Join(dir, "sstd-master"),
		"-listen", "127.0.0.1:0", "-scale", "0.003", "-min-workers", "1", "-trace-out", traceOut, "-log-level", "error",
		"-profile", profDir)
	stdout, err := master.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := master.Start(); err != nil {
		t.Fatal(err)
	}
	timer := time.AfterFunc(30*time.Second, func() { _ = master.Process.Kill() })
	defer timer.Stop()
	var signalled time.Time
	lines := bufio.NewScanner(stdout)
	for lines.Scan() { // until the master exits and its stdout closes
		if strings.HasPrefix(lines.Text(), "listening on ") {
			signalled = time.Now()
			_ = master.Process.Signal(os.Interrupt)
		}
	}
	err = master.Wait()
	if signalled.IsZero() {
		t.Fatalf("sstd-master never started listening: %v", err)
	}
	if took := time.Since(signalled); took > 5*time.Second {
		t.Errorf("sstd-master took %s to exit after SIGINT", took)
	}
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Errorf("interrupted sstd-master: %v, want exit status 1", err)
	}
	if _, err := os.Stat(traceOut); err != nil {
		t.Errorf("-trace-out not written on SIGINT: %v", err)
	}
	for _, kind := range []string{"cpu", "heap", "mutex", "block"} {
		if fi, err := os.Stat(filepath.Join(profDir, kind+".pprof")); err != nil || fi.Size() == 0 {
			t.Errorf("-profile: %s profile not written on SIGINT (%v)", kind, err)
		}
	}
}

// TestCLIMasterChaosSeed: the fault schedule's seed rides inside
// -chaos-spec, and the master says which one it armed. With every fault
// probability zero the run is otherwise untouched; SIGINT ends it.
func TestCLIMasterChaosSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI binary")
	}
	dir := buildCLI(t, "sstd-master")
	master := exec.Command(filepath.Join(dir, "sstd-master"),
		"-listen", "127.0.0.1:0", "-scale", "0.003", "-min-workers", "1", "-log-level", "error", "-chaos-spec", "seed=7")
	stdout, err := master.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := master.Start(); err != nil {
		t.Fatal(err)
	}
	timer := time.AfterFunc(30*time.Second, func() { _ = master.Process.Kill() })
	defer timer.Stop()
	var armed string
	lines := bufio.NewScanner(stdout)
	for lines.Scan() {
		line := lines.Text()
		if strings.HasPrefix(line, "CHAOS: ") {
			armed = line
		}
		if strings.HasPrefix(line, "listening on ") {
			_ = master.Process.Signal(os.Interrupt)
		}
	}
	_ = master.Wait()
	if !strings.Contains(armed, "(seed 7)") {
		t.Errorf("-chaos-spec seed=7: master printed %q, want it to name (seed 7)", armed)
	}
}

// TestSSTDBeatsBaselinesEndToEnd is the headline integration check: on a
// freshly generated trace, SSTD's dynamic accuracy exceeds every baseline.
func TestSSTDBeatsBaselinesEndToEnd(t *testing.T) {
	gen, err := tracegen.New(tracegen.BostonBombing(), 99)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := gen.Generate(0.01)
	if err != nil {
		t.Fatal(err)
	}
	width := tr.Duration() / 80

	cfg := core.DefaultConfig(tr.Start)
	cfg.ACS.Interval = width
	eng, err := core.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.IngestAll(tr.Reports); err != nil {
		t.Fatal(err)
	}
	decoded, err := eng.DecodeAll()
	if err != nil {
		t.Fatal(err)
	}
	sstdConf, err := evalmetrics.EvaluateDynamic(tr, func(c socialsensing.ClaimID, at time.Time) (socialsensing.TruthValue, bool) {
		return core.TruthAt(decoded[c], at)
	}, width)
	if err != nil {
		t.Fatal(err)
	}

	ds := baselines.BuildDataset(tr.Reports)
	ests := []baselines.Estimator{
		baselines.NewTruthFinder(), baselines.NewRTD(), baselines.NewCATD(),
		baselines.NewInvest(), baselines.NewThreeEstimates(),
	}
	for _, est := range ests {
		verdicts := est.Estimate(ds)
		conf, err := evalmetrics.EvaluateDynamic(tr, func(c socialsensing.ClaimID, _ time.Time) (socialsensing.TruthValue, bool) {
			v, ok := verdicts[c]
			return v, ok
		}, width)
		if err != nil {
			t.Fatal(err)
		}
		if conf.Accuracy() >= sstdConf.Accuracy() {
			t.Errorf("%s accuracy %.3f >= SSTD %.3f", est.Name(), conf.Accuracy(), sstdConf.Accuracy())
		}
	}

	// And the streaming baseline.
	batches, err := stream.SplitByInterval(tr, width)
	if err != nil {
		t.Fatal(err)
	}
	d := baselines.NewDynaTD()
	type snap struct {
		at  time.Time
		est map[socialsensing.ClaimID]socialsensing.TruthValue
	}
	var history []snap
	for _, b := range batches {
		cur := d.ProcessInterval(b.Reports)
		cp := make(map[socialsensing.ClaimID]socialsensing.TruthValue, len(cur))
		for k, v := range cur {
			cp[k] = v
		}
		history = append(history, snap{at: b.Start, est: cp})
	}
	dynaConf, err := evalmetrics.EvaluateDynamic(tr, func(c socialsensing.ClaimID, at time.Time) (socialsensing.TruthValue, bool) {
		var cur socialsensing.TruthValue
		ok := false
		for _, s := range history {
			if s.at.After(at) {
				break
			}
			if v, have := s.est[c]; have {
				cur, ok = v, true
			}
		}
		return cur, ok
	}, width)
	if err != nil {
		t.Fatal(err)
	}
	if dynaConf.Accuracy() >= sstdConf.Accuracy() {
		t.Errorf("DynaTD accuracy %.3f >= SSTD %.3f", dynaConf.Accuracy(), sstdConf.Accuracy())
	}
}
