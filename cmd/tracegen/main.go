// Command tracegen synthesizes a social sensing trace shaped after one of
// the paper's datasets and writes it to a JSON (optionally gzipped) file.
//
// Usage:
//
//	tracegen -trace boston -scale 0.01 -seed 7 -out boston.json.gz
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/social-sensing/sstd/internal/tracegen"
	"github.com/social-sensing/sstd/internal/traceio"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		trace = flag.String("trace", "boston", "trace profile: boston, paris or football")
		scale = flag.Float64("scale", 0.01, "trace size relative to the paper's dataset (1.0 = full)")
		seed  = flag.Int64("seed", 1, "random seed")
		out   = flag.String("out", "", "output path (.json or .json.gz); defaults to <trace>.json.gz")
	)
	flag.Parse()

	prof, err := tracegen.ProfileByName(*trace)
	if err != nil {
		return err
	}
	g, err := tracegen.New(prof, *seed)
	if err != nil {
		return err
	}
	tr, err := g.Generate(*scale)
	if err != nil {
		return err
	}
	path := *out
	if path == "" {
		path = prof.Name + ".json.gz"
	}
	if err := traceio.Save(path, tr); err != nil {
		return err
	}
	st := tr.Summarize()
	fmt.Printf("wrote %s: %d reports, %d sources, %d claims over %s\n",
		path, st.Reports, st.Sources, st.Claims, st.Duration)
	return nil
}
