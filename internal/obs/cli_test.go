package obs

import (
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestCLIFlags(t *testing.T) {
	for serving, want := range map[bool][]string{
		false: {"profile"},
		true:  {"flight-record", "log-level", "profile", "telemetry"},
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		NewCLI(fs, serving)
		var got []string
		fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
		if !reflect.DeepEqual(got, want) { // VisitAll goes in name order
			t.Errorf("serving=%v registers %v, want %v", serving, got, want)
		}
	}
}

// TestCLICloseStopsWhatItStarted: after Close the telemetry server no
// longer answers, every loop handed to Go has returned, and the profiles
// are on disk.
func TestCLICloseStopsWhatItStarted(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	c := NewCLI(fs, true)
	dir := t.TempDir()
	if err := fs.Parse([]string{"-telemetry", "127.0.0.1:0", "-profile", dir}); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if err := c.Serve(Handler(nil, nil, nil)); err != nil {
		t.Fatal(err)
	}
	stopped := make(chan struct{})
	c.Go(func(done <-chan struct{}) {
		<-done
		close(stopped)
	})
	url := "http://" + c.Telemetry + "/metrics"
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("telemetry endpoint before Close: %v", err)
	}
	resp.Body.Close()
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case <-stopped:
	default:
		t.Fatal("a loop handed to Go is still running after Close")
	}
	if resp, err := http.Get(url); err == nil {
		resp.Body.Close()
		t.Fatal("telemetry endpoint still answers after Close")
	}
	for _, kind := range profileKinds {
		if _, err := os.Stat(filepath.Join(dir, kind+".pprof")); err != nil {
			t.Errorf("%s profile not written at Close: %v", kind, err)
		}
	}
}
