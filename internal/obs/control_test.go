package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestControlRecorderTicksAndSeq(t *testing.T) {
	rec := NewControlRecorder(100)
	rec.BeginTick()
	rec.Record(ControlSample{Job: "a", Error: 1})
	rec.Record(ControlSample{Job: "b", Error: 2})
	rec.BeginTick()
	rec.Record(ControlSample{Job: "a", Error: 0.5})

	samples := rec.Samples()
	if len(samples) != 3 {
		t.Fatalf("got %d samples, want 3", len(samples))
	}
	for i, s := range samples {
		if s.Seq != i {
			t.Errorf("sample %d has seq %d", i, s.Seq)
		}
	}
	if samples[0].Tick != 1 || samples[1].Tick != 1 || samples[2].Tick != 2 {
		t.Errorf("ticks = %d,%d,%d want 1,1,2", samples[0].Tick, samples[1].Tick, samples[2].Tick)
	}
}

func TestControlRecorderEvictsOldest(t *testing.T) {
	// Caps under four drop less than a quarter: still one sample.
	for _, limit := range []int{1, 2, 3, 4, 5, 8} {
		rec := NewControlRecorder(limit)
		for i := 0; i < 20; i++ {
			rec.Record(ControlSample{Job: "j", Error: float64(i)})
			rec.RecordWorker(WorkerSample{Worker: "w", TasksPerSec: float64(i)})
			if n, w := rec.Len(), len(rec.WorkerSamples()); n > limit || w > limit {
				t.Fatalf("cap %d: recorder holds %d samples and %d worker samples", limit, n, w)
			}
		}
		samples, workers := rec.Samples(), rec.WorkerSamples()
		// The newest sample always survives.
		if last := samples[len(samples)-1]; last.Error != 19 {
			t.Errorf("cap %d: newest sample error = %v, want 19", limit, last.Error)
		}
		if last := workers[len(workers)-1]; last.TasksPerSec != 19 {
			t.Errorf("cap %d: newest worker sample rate = %v, want 19", limit, last.TasksPerSec)
		}
		// Order is preserved after eviction.
		for i := 1; i < len(samples); i++ {
			if samples[i].Seq <= samples[i-1].Seq {
				t.Errorf("cap %d: seq out of order at %d: %d after %d", limit, i, samples[i].Seq, samples[i-1].Seq)
			}
		}
		for i := 1; i < len(workers); i++ {
			if workers[i].Seq <= workers[i-1].Seq {
				t.Errorf("cap %d: worker seq out of order at %d: %d after %d", limit, i, workers[i].Seq, workers[i-1].Seq)
			}
		}
	}
}

func TestWriteArtifactFile(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dtm_jobs_total").Add(4)
	reg.Gauge("dtm_gck_workers").SetInt(6)
	rec := NewControlRecorder(0)
	rec.BeginTick()
	rec.Record(ControlSample{Job: "claim-1", Error: -0.2, LCK: 0.4, GCK: 6, ExpectedFinishMs: 80, DeadlineMs: 100})

	path := filepath.Join(t.TempDir(), "telemetry.json")
	if err := WriteArtifactFile(path, reg, rec); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var art Artifact
	if err := json.Unmarshal(data, &art); err != nil {
		t.Fatalf("artifact does not parse: %v", err)
	}
	if art.Metrics.Counters["dtm_jobs_total"] != 4 {
		t.Errorf("metrics lost: %+v", art.Metrics.Counters)
	}
	if len(art.Control) != 1 || art.Control[0].LCK != 0.4 || art.Control[0].GCK != 6 {
		t.Errorf("control series lost: %+v", art.Control)
	}
}

func TestWriteArtifactFileNilSinks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.json")
	if err := WriteArtifactFile(path, nil, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var art Artifact
	if err := json.Unmarshal(data, &art); err != nil {
		t.Fatalf("nil-sink artifact does not parse: %v", err)
	}
	if art.Control == nil {
		t.Error("control must encode as [] not null")
	}
}
