// Package traceio persists social sensing traces as (optionally gzipped)
// JSON so generated workloads can be shared between the CLI tools.
package traceio

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/social-sensing/sstd/internal/socialsensing"
	"github.com/social-sensing/sstd/internal/tracegen"
)

// Write serializes the trace as JSON to w.
func Write(w io.Writer, tr *socialsensing.Trace) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(tr); err != nil {
		return fmt.Errorf("traceio: encode trace: %w", err)
	}
	return nil
}

// Read deserializes a trace from r and validates it.
func Read(r io.Reader) (*socialsensing.Trace, error) {
	var tr socialsensing.Trace
	if err := json.NewDecoder(r).Decode(&tr); err != nil {
		return nil, fmt.Errorf("traceio: decode trace: %w", err)
	}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("traceio: %w", err)
	}
	return &tr, nil
}

// Save writes the trace to path; a ".gz" suffix enables gzip compression.
func Save(path string, tr *socialsensing.Trace) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("traceio: create %s: %w", path, err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("traceio: close %s: %w", path, cerr)
		}
	}()
	if strings.HasSuffix(path, ".gz") {
		gz := gzip.NewWriter(f)
		if err := Write(gz, tr); err != nil {
			return err
		}
		if err := gz.Close(); err != nil {
			return fmt.Errorf("traceio: flush gzip: %w", err)
		}
		return nil
	}
	return Write(f, tr)
}

// Load reads a trace from path; a ".gz" suffix enables gzip decompression.
func Load(path string) (*socialsensing.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("traceio: open %s: %w", path, err)
	}
	defer func() { _ = f.Close() }()
	var r io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			return nil, fmt.Errorf("traceio: gunzip %s: %w", path, err)
		}
		defer func() { _ = gz.Close() }()
		r = gz
	}
	return Read(r)
}

// LoadOrGenerate is the CLIs' trace input: the file at path when one is
// given, else the named tracegen profile synthesized at scale and seed.
func LoadOrGenerate(path, profile string, scale float64, seed int64) (*socialsensing.Trace, error) {
	if path != "" {
		return Load(path)
	}
	prof, err := tracegen.ProfileByName(profile)
	if err != nil {
		return nil, err
	}
	g, err := tracegen.New(prof, seed)
	if err != nil {
		return nil, err
	}
	return g.Generate(scale)
}
