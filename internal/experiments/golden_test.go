package experiments

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/social-sensing/sstd/internal/tracegen"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/accuracy_golden.json from this run")

// accuracyGolden is the checked-in SSTD row of Tables III-V.
type accuracyGolden struct {
	Scale float64             `json:"scale"`
	Seed  int64               `json:"seed"`
	Rows  []accuracyGoldenRow `json:"rows"`
}

type accuracyGoldenRow struct {
	Trace     string  `json:"trace"`
	Accuracy  float64 `json:"accuracy"`
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	F1        float64 `json:"f1"`
}

// goldenTol is how far a score may sit from the golden. The tables are
// seeded and deterministic, so any drift is a behaviour change; the
// tolerance only absorbs a platform's last-ulp differences flipping a
// borderline interval.
const goldenTol = 0.001

// TestAccuracyGolden recomputes the SSTD rows of Tables III-V at the
// scale and seed EXPERIMENTS.md is generated with and fails when
// accuracy, precision, recall or F1 leaves the checked-in golden: the
// paper's effectiveness result must not drift silently under a refactor.
// After an intended change, regenerate with
//
//	go test ./internal/experiments -run TestAccuracyGolden -update-golden
//
// and say why in the commit.
func TestAccuracyGolden(t *testing.T) {
	path := filepath.Join("testdata", "accuracy_golden.json")
	o := Options{Scale: 0.02, Seed: 7}.withDefaults()
	got := accuracyGolden{Scale: o.Scale, Seed: o.Seed}
	for _, prof := range tracegen.Profiles() {
		// The SSTD row alone: the baselines are not what a kernel or
		// decode-path refactor can move.
		tr, err := generate(prof, o)
		if err != nil {
			t.Fatalf("%s: %v", prof.Name, err)
		}
		r, err := sstdAccuracy(tr, o)
		if err != nil {
			t.Fatalf("%s: %v", prof.Name, err)
		}
		got.Rows = append(got.Rows, accuracyGoldenRow{
			Trace: prof.Name, Accuracy: r.Accuracy, Precision: r.Precision, Recall: r.Recall, F1: r.F1,
		})
	}
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want accuracyGolden
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if want.Scale != got.Scale || want.Seed != got.Seed || len(want.Rows) != len(got.Rows) {
		t.Fatalf("%s was recorded at scale %v seed %d with %d rows; this test runs scale %v seed %d with %d",
			path, want.Scale, want.Seed, len(want.Rows), got.Scale, got.Seed, len(got.Rows))
	}
	for i, w := range want.Rows {
		g := got.Rows[i]
		if g.Trace != w.Trace {
			t.Fatalf("row %d is %s, golden has %s", i, g.Trace, w.Trace)
		}
		for _, s := range []struct {
			name      string
			got, want float64
		}{
			{"accuracy", g.Accuracy, w.Accuracy},
			{"precision", g.Precision, w.Precision},
			{"recall", g.Recall, w.Recall},
			{"f1", g.F1, w.F1},
		} {
			if math.IsNaN(s.got) || math.Abs(s.got-s.want) > goldenTol {
				t.Errorf("%s %s = %.6f, golden %.6f (tolerance %v)", w.Trace, s.name, s.got, s.want, goldenTol)
			}
		}
	}
}
