// Package lib plants one case of each rule TestAPIAuditFixture holds the
// API audit to. The audit must report Unused, BenchOnly, Asserted and its
// Error, Config.TestSet and Config.NeverSet only.
package lib

import "errors"

// Used has a caller in the command.
func Used() error { return &wrapped{errors.New("planted")} }

// Unused has no caller at all.
func Unused() {}

// BenchOnly has a caller in another package's benchmark alone.
func BenchOnly() int { return 1 }

// ViaExample has a caller in the facade that only an example calls.
func ViaExample() string { return "example" }

// Config has a field for each of the field rule's cases.
type Config struct {
	TestSet int // written by this package's test alone

	NeverSet int

	Seam int // written by another package's test alone, a test seam
}

// Sum has a caller in the command.
func (c Config) Sum() int { return c.TestSet + c.NeverSet + c.Seam }

// String has no caller, but the command converts a Config to an interface
// when it prints one, and fmt.Stringer reaches it.
func (c Config) String() string { return "config" }

type wrapped struct{ err error }

// Error has no caller, but Used returns a wrapped as an error.
func (w *wrapped) Error() string { return w.err.Error() }

// Unwrap has no caller, but errors.Is and errors.As reach it.
func (w *wrapped) Unwrap() error { return w.err }

// Asserted is used only in an interface assertion, which converts nothing
// at run time.
var _ error = (*Asserted)(nil)

type Asserted struct{}

func (*Asserted) Error() string { return "asserted" }
