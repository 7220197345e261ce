package obs

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
)

// CLI is the observability command line the binaries share. Every one
// takes -profile; the long-running sstd-master and sstd-worker also take
// -telemetry (the endpoint's address), -log-level and -flight-record.
// CLI owns what those flags start — the profiles, the telemetry HTTP
// server and any background loop handed to Go — and Close stops all of
// it, so none outlives the program's run function.
type CLI struct {
	Telemetry    string
	FlightRecord string
	logLevel     string
	profile      string

	stopProfile func() error
	srv         *http.Server
	done        chan struct{}
	wg          sync.WaitGroup
}

// NewCLI registers the shared flags on fs: -profile, and with serving
// also -telemetry, -log-level and -flight-record.
func NewCLI(fs *flag.FlagSet, serving bool) *CLI {
	c := &CLI{done: make(chan struct{})}
	fs.StringVar(&c.profile, "profile", "", "write cpu, heap, mutex and block profiles (cpu.pprof, ...) into this directory at exit")
	if serving {
		fs.StringVar(&c.Telemetry, "telemetry", "", "address serving /metrics, /trace, /logs, /debug/pprof and the binary's own endpoints (e.g. :9125)")
		fs.StringVar(&c.logLevel, "log-level", "info", "structured log threshold: debug, info, warn or error")
		fs.StringVar(&c.FlightRecord, "flight-record", "", "enable the always-on flight recorder; deep-dive trace files land in this directory when a trigger fires")
	}
	return c
}

// Start begins profiling. Call it once the flags are parsed, and Close
// when the run ends.
func (c *CLI) Start() (err error) {
	c.stopProfile, err = StartProfiling(c.profile)
	return err
}

// Logger returns the process logger: JSON lines to stderr at -log-level.
func (c *CLI) Logger() *Logger {
	return NewLogger(os.Stderr, ParseLogLevel(c.logLevel), 0)
}

// Go runs loop on its own goroutine until Close, which closes done and
// waits for loop to return.
func (c *CLI) Go(loop func(done <-chan struct{})) {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		loop(c.done)
	}()
}

// Serve binds the -telemetry address, resolving it (":0" picks a port),
// and serves h there until Close.
func (c *CLI) Serve(h http.Handler) error {
	l, err := net.Listen("tcp", c.Telemetry)
	if err != nil {
		return fmt.Errorf("telemetry endpoint: %w", err)
	}
	c.Telemetry = l.Addr().String()
	c.srv = &http.Server{Handler: h}
	c.Go(func(<-chan struct{}) {
		if err := c.srv.Serve(l); !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "telemetry endpoint:", err)
		}
	})
	return nil
}

// Close stops the server and every loop, waits for them, and then
// writes the profiles.
func (c *CLI) Close() error {
	close(c.done)
	if c.srv != nil {
		_ = c.srv.Close()
	}
	c.wg.Wait()
	if c.stopProfile == nil {
		return nil
	}
	return c.stopProfile()
}
