package workqueue

import (
	"errors"
	"fmt"
	"strings"

	"github.com/social-sensing/sstd/internal/obs"
)

// Execution stages a task moves through on a worker. Executors tag
// failures with StageError so the master learns which stage broke; an
// untagged failure is attributed to StageExec. The same stage names
// label the worker-side trace spans (see TaskTrace), with StageRecv and
// StageSend bracketing the executor stages on the wire side.
const (
	StageRecv   = "recv"
	StageDecode = "decode payload"
	StageExec   = "exec"
	StageEncode = "encode output"
	StageSend   = "send"
)

// TaskError carries the provenance of a worker-side task failure: which
// worker ran it, which task it was, and which execution stage failed.
// Its string form is what crosses the wire in Result.Err, so a master
// log line alone identifies the failing worker and stage instead of
// showing a bare cause.
type TaskError struct {
	WorkerID string
	TaskID   string
	Stage    string
	Err      error
	// Trace is the error's return path through the worker (obs.Wrap
	// frames, origin first), captured before the stage tag was stripped.
	// Empty when no return boundary wrapped the error.
	Trace []string
}

func (e *TaskError) Error() string {
	return fmt.Sprintf("worker %s: task %s: %s: %v", e.WorkerID, e.TaskID, e.Stage, e.Err)
}

// StageError tags err with the execution stage that produced it. Workers
// unwrap the tag when building the TaskError they report, so the stage
// travels with the error instead of being lost in a formatted string —
// the same idea errtrace applies to call sites. Returns nil for a nil
// err.
func StageError(stage string, err error) error {
	if err == nil {
		return nil
	}
	return &stagedError{stage: stage, err: err}
}

type stagedError struct {
	stage string
	err   error
}

func (e *stagedError) Error() string { return e.stage + ": " + e.err.Error() }
func (e *stagedError) Unwrap() error { return e.err }

// newTaskError wraps one failed execution with provenance, extracting
// the executor's stage tag when present (default StageExec) and the
// error's return trace before either is stripped from the cause chain.
func newTaskError(workerID, taskID string, err error) *TaskError {
	trace := obs.ReturnTrace(err)
	stage := StageExec
	var se *stagedError
	if errors.As(err, &se) {
		stage = se.stage
		err = se.err
	}
	return &TaskError{WorkerID: workerID, TaskID: taskID, Stage: stage, Err: err, Trace: trace}
}

// ReturnTrace renders the error's worker-side return path as the compact
// " -> "-joined wire form (empty when untraced).
func (e *TaskError) ReturnTrace() string { return strings.Join(e.Trace, " -> ") }
