// Package lib plants one case of each rule TestAPIAuditFixture holds the
// API audit to. The audit must report Unused and Config.NeverSet only.
package lib

import "errors"

// Used has a caller in the command.
func Used() error { return &wrapped{errors.New("planted")} }

func Unused() {}

// Config has a field only a test writes and a field nothing writes.
type Config struct {
	// TestSet is written by this package's test alone.
	TestSet int

	NeverSet int
}

// Sum has a caller in the command.
func (c Config) Sum() int { return c.TestSet + c.NeverSet }

// String has no caller, but fmt.Stringer reaches it.
func (c Config) String() string { return "config" }

type wrapped struct{ err error }

// Error has no caller, but error reaches it.
func (w *wrapped) Error() string { return w.err.Error() }

// Unwrap has no caller, but errors.Is and errors.As reach it.
func (w *wrapped) Unwrap() error { return w.err }
