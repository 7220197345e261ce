package traceio

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"github.com/social-sensing/sstd/internal/tracegen"
)

func TestWriteReadRoundTrip(t *testing.T) {
	g, err := tracegen.New(tracegen.ParisShooting(), 5)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := g.Generate(0.001)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name || len(got.Reports) != len(tr.Reports) ||
		len(got.Sources) != len(tr.Sources) || len(got.Claims) != len(tr.Claims) {
		t.Errorf("round trip mismatch: %+v vs %+v", got.Summarize(), tr.Summarize())
	}
	for i := range tr.Reports {
		if !got.Reports[i].Timestamp.Equal(tr.Reports[i].Timestamp) ||
			got.Reports[i].Source != tr.Reports[i].Source {
			t.Fatalf("report %d differs", i)
		}
	}
}

func TestReadRejectsInvalid(t *testing.T) {
	if _, err := Read(strings.NewReader("{not json")); err == nil {
		t.Error("bad JSON accepted")
	}
	// Valid JSON but invalid trace (no name).
	if _, err := Read(strings.NewReader(`{"Name":""}`)); err == nil {
		t.Error("invalid trace accepted")
	}
}

func TestSaveLoadPlainAndGzip(t *testing.T) {
	g, _ := tracegen.New(tracegen.BostonBombing(), 2)
	tr, err := g.Generate(0.0005)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, name := range []string{"trace.json", "trace.json.gz"} {
		path := filepath.Join(dir, name)
		if err := Save(path, tr); err != nil {
			t.Fatalf("save %s: %v", name, err)
		}
		got, err := Load(path)
		if err != nil {
			t.Fatalf("load %s: %v", name, err)
		}
		if got.Summarize() != tr.Summarize() {
			t.Errorf("%s: %+v vs %+v", name, got.Summarize(), tr.Summarize())
		}
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load("/nonexistent/trace.json"); err == nil {
		t.Error("missing file accepted")
	}
}

// TestLoadOrGenerate: a path wins over the profile; without one the named
// profile is synthesized, by short name or full name alike, and an unknown
// name is an error.
func TestLoadOrGenerate(t *testing.T) {
	short, err := LoadOrGenerate("", "football", 0.0005, 2)
	if err != nil {
		t.Fatal(err)
	}
	full, err := LoadOrGenerate("", "college-football", 0.0005, 2)
	if err != nil {
		t.Fatal(err)
	}
	if short.Name != "college-football" || short.Summarize() != full.Summarize() {
		t.Errorf("football = %+v, college-football = %+v", short.Summarize(), full.Summarize())
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := Save(path, short); err != nil {
		t.Fatal(err)
	}
	if got, err := LoadOrGenerate(path, "no-such-profile", 1, 1); err != nil || got.Summarize() != short.Summarize() {
		t.Errorf("file input: %v, %+v", err, got)
	}
	if _, err := LoadOrGenerate("", "no-such-profile", 0.0005, 2); err == nil {
		t.Error("unknown profile accepted")
	}
}
