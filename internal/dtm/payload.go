package dtm

// payload.go is the task codec — the one place that knows what a TD task
// and its result look like on the wire. A worker only needs, per report,
// the ACS interval it falls in and its contribution score ρ·(1−κ)·η, so
// that is all that travels: both are computed once at submit, as two
// columns, and no claim id, source, timestamp or tweet text leaves the
// master. The score is one column, not ρ, κ and η: two multiplies at
// submit are cheaper than 16 more bytes per report to encode, checksum,
// copy and decode.
//
//	task v1:   0x01 | uvarint n | uvarint base | uvarint span |
//	           n × zigzag-varint Δidx (the first relative to base) |
//	           n × float64-LE score
//	output v1: 0x01 | uvarint k | k × (uvarint Δidx, float64-LE sum)
//
// Every index of a task lies in [base, base+span). An output lists, in
// strictly ascending order (the first Δidx is the index itself), every
// interval whose partial sum is non-zero plus always the highest interval
// the task touched, so the length of the job's series survives a trailing
// zero sum. Both decoders read outside input: they allocate nothing from a
// length they have not checked against the bytes that remain.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"time"

	"github.com/social-sensing/sstd/internal/obs"
	"github.com/social-sensing/sstd/internal/socialsensing"
	"github.com/social-sensing/sstd/internal/workqueue"
)

const payloadVersion byte = 1

// maxSpan caps the interval range one task may touch. The worker scatters
// into a dense scratch of span floats, and a dense result of more slots
// than one frame can hold could not come back anyway.
const maxSpan = workqueue.MaxFrameBytes / 8

// splitReports divides reports into at most n contiguous chunks of nearly
// equal size (the paper divides a job's data equally between its tasks).
// It always returns at least one (possibly empty) chunk so every job has a
// task and therefore a completion event.
func splitReports(reports []socialsensing.Report, n int) [][]socialsensing.Report {
	if n < 1 {
		n = 1
	}
	if len(reports) == 0 {
		return [][]socialsensing.Report{{}}
	}
	if n > len(reports) {
		n = len(reports)
	}
	chunks := make([][]socialsensing.Report, 0, n)
	size := len(reports) / n
	rem := len(reports) % n
	start := 0
	for i := 0; i < n; i++ {
		end := start + size
		if i < rem {
			end++
		}
		chunks = append(chunks, reports[start:end])
		start = end
	}
	return chunks
}

// intervalIndex is the ACS grid slot of a report: 0 for anything not
// after the origin.
func intervalIndex(ts, origin time.Time, interval time.Duration) int {
	if d := ts.Sub(origin); d > 0 {
		return int(d / interval)
	}
	return 0
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// varintLen is the encoded size of binary.AppendVarint(nil, int64(d)).
func varintLen(d int) int { return uvarintLen(uint64(d<<1) ^ uint64(d>>63)) }

// encodeTasks encodes one task payload per chunk of a job's reports, all
// in a single buffer, and reports the number of grid intervals the job
// spans — the bound handleResult holds the tasks' outputs to. A NaN or ±Inf
// contribution score is an error naming the claim and the report's
// position in the job: it would poison every window it falls in.
func encodeTasks(chunks [][]socialsensing.Report, origin time.Time, interval time.Duration) (payloads [][]byte, intervals int, err error) {
	if interval <= 0 {
		return nil, 0, errors.New("dtm: task encoding needs a positive interval")
	}
	// First pass: each chunk's index range and encoded size, so the job
	// gets one buffer of exactly the size its payloads fill.
	type layout struct{ base, span int }
	layouts := make([]layout, len(chunks))
	size, seen := 0, 0
	for c, chunk := range chunks {
		first, lo, hi, prev := 0, 0, -1, 0
		for i := range chunk {
			r := &chunk[i] // a Report is 96 bytes: do not copy it per pass
			if s := r.ContributionScore(); math.IsNaN(s) || math.IsInf(s, 0) {
				return nil, 0, fmt.Errorf("dtm: claim %s report %d: contribution score is %v", r.Claim, seen+i, s)
			}
			idx := intervalIndex(r.Timestamp, origin, interval)
			if i == 0 {
				first, lo, hi = idx, idx, idx
			} else {
				size += varintLen(idx - prev)
				lo, hi = min(lo, idx), max(hi, idx)
			}
			prev = idx
		}
		seen += len(chunk)
		l := layout{base: lo, span: hi - lo + 1}
		if l.span > maxSpan {
			return nil, 0, fmt.Errorf("dtm: a task spans %d intervals, more than the %d one task can carry", l.span, maxSpan)
		}
		layouts[c] = l
		intervals = max(intervals, l.base+l.span)
		size += 1 + uvarintLen(uint64(len(chunk))) + uvarintLen(uint64(l.base)) + uvarintLen(uint64(l.span)) + 8*len(chunk)
		if len(chunk) > 0 {
			size += varintLen(first - lo)
		}
	}
	buf := make([]byte, 0, size)
	payloads = make([][]byte, len(chunks))
	for c, chunk := range chunks {
		start := len(buf)
		buf = append(buf, payloadVersion)
		buf = binary.AppendUvarint(buf, uint64(len(chunk)))
		buf = binary.AppendUvarint(buf, uint64(layouts[c].base))
		buf = binary.AppendUvarint(buf, uint64(layouts[c].span))
		prev := layouts[c].base
		for i := range chunk {
			idx := intervalIndex(chunk[i].Timestamp, origin, interval)
			buf = binary.AppendVarint(buf, int64(idx-prev))
			prev = idx
		}
		for i := range chunk {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(chunk[i].ContributionScore()))
		}
		payloads[c] = buf[start:len(buf):len(buf)]
	}
	return payloads, intervals, nil
}

// taskView is a task payload with its header decoded and its two columns
// located; the columns' contents are not yet checked.
type taskView struct {
	n, base, span int
	idx, scores   []byte
}

// header reads the version byte and then fields uvarints from p,
// returning the offset of what follows them.
func header(p []byte, fields ...*uint64) (int, error) {
	if len(p) == 0 {
		return 0, errors.New("truncated")
	}
	if p[0] != payloadVersion {
		return 0, errors.New("unknown version")
	}
	off := 1
	for _, f := range fields {
		v, w := binary.Uvarint(p[off:])
		if w <= 0 {
			return 0, errors.New("truncated")
		}
		*f, off = v, off+w
	}
	return off, nil
}

func parseTask(p []byte) (taskView, error) {
	var n, base, span uint64
	off, err := header(p, &n, &base, &span)
	if err != nil {
		return taskView{}, err
	}
	// A report is at least one index byte and eight score bytes.
	if n > uint64(len(p)-off)/9 {
		return taskView{}, errors.New("count exceeds the bytes that follow")
	}
	if span > maxSpan {
		return taskView{}, errors.New("interval span over the cap")
	}
	if base > math.MaxInt64-maxSpan {
		return taskView{}, errors.New("interval index out of range")
	}
	scores := len(p) - 8*int(n)
	return taskView{n: int(n), base: int(base), span: int(span), idx: p[off:scores], scores: p[scores:]}, nil
}

// scratchPool holds the executors' dense per-task accumulators.
var scratchPool = sync.Pool{New: func() any { return new([]float64) }}

// ExecuteTask is the worker-side task body: the partial per-interval
// contribution-score sums of one chunk of reports (the preprocessing step
// of §III-E, which dominates TD job cost and parallelizes across the
// data). It is a workqueue.Executor; a malformed payload is a
// decode-stage error.
func ExecuteTask(ctx context.Context, payload []byte) ([]byte, error) {
	return executeTask(ctx, payload, 0)
}

// executeTask is ExecuteTask with an artificial cost of perReport busy
// time for every report of the chunk.
func executeTask(ctx context.Context, payload []byte, perReport time.Duration) ([]byte, error) {
	decode := workqueue.StartStageSpan(ctx, workqueue.StageDecode)
	t, err := parseTask(payload)
	if err != nil {
		return nil, obs.Wrap(malformed("payload", err))
	}
	if perReport > 0 {
		// Busy-burn rather than sleep: sub-millisecond per-report costs
		// matter here and sleep granularity would distort them. Stay
		// responsive to preemption.
		for deadline := time.Now().Add(time.Duration(t.n) * perReport); time.Now().Before(deadline); {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
		}
	}
	if t.n == 0 {
		decode.Finish()
		return []byte{payloadVersion, 0}, nil
	}
	buf := scratchPool.Get().(*[]float64)
	defer scratchPool.Put(buf)
	if cap(*buf) < t.span {
		*buf = make([]float64, t.span)
	}
	sums := (*buf)[:t.span]
	clear(sums)
	top, err := t.scatter(sums)
	if err != nil {
		return nil, obs.Wrap(malformed("payload", err))
	}
	decode.Finish()

	encode := workqueue.StartStageSpan(ctx, workqueue.StageEncode)
	// Emit the non-zero sums and, always, the highest interval touched.
	sums = sums[:top+1]
	k := 1
	for _, s := range sums[:top] {
		if s != 0 {
			k++
		}
	}
	out := make([]byte, 0, 1+binary.MaxVarintLen64+k*(uvarintLen(uint64(t.base+top))+8))
	out = append(out, payloadVersion)
	out = binary.AppendUvarint(out, uint64(k))
	prev := 0
	for i, s := range sums {
		if s != 0 || i == top {
			out = binary.AppendUvarint(out, uint64(t.base+i-prev))
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(s))
			prev = t.base + i
		}
	}
	encode.Finish()
	return out, nil
}

// scatter adds the task's scores into sums — span zeroed slots, slot 0
// being interval base — in report order, so each interval sees its addends
// in the order the reports were submitted. It returns the highest slot
// touched.
func (t taskView) scatter(sums []float64) (top int, err error) {
	off, at := 0, 0
	for i := 0; i < t.n; i++ {
		d, w := binary.Varint(t.idx[off:])
		if w <= 0 {
			return 0, errors.New("index and score columns do not fill the payload")
		}
		off += w
		// at is inside [0, span), so neither bound can wrap.
		if d < int64(-at) || d >= int64(t.span-at) {
			return 0, errors.New("interval index out of range")
		}
		at += int(d)
		top = max(top, at)
		s := math.Float64frombits(binary.LittleEndian.Uint64(t.scores[8*i:]))
		if s-s != 0 {
			return 0, errors.New("score is not finite")
		}
		sums[at] += s
	}
	if off != len(t.idx) {
		return 0, errors.New("index and score columns do not fill the payload")
	}
	return top, nil
}

// malformed marks a payload or output the codec refuses as a
// decode-stage error.
func malformed(what string, err error) error {
	return workqueue.StageError(workqueue.StageDecode, fmt.Errorf("dtm: bad task %s: %w", what, err))
}

// checkOutput validates a task output in full: well formed, and every
// interval index below limit.
func checkOutput(out []byte, limit int) error {
	var k uint64
	off, err := header(out, &k)
	if err != nil {
		return err
	}
	// A pair is at least one index byte and eight sum bytes.
	if k > uint64(len(out)-off)/9 {
		return errors.New("count exceeds the bytes that follow")
	}
	idx := uint64(0)
	for i := uint64(0); i < k; i++ {
		d, w := binary.Uvarint(out[off:])
		if w <= 0 || len(out)-off-w < 8 {
			return errors.New("truncated")
		}
		if i > 0 && d == 0 {
			return errors.New("interval indices not strictly ascending")
		}
		// Both terms are at most limit, so the sum cannot wrap.
		if d >= uint64(limit) || idx+d >= uint64(limit) {
			return errors.New("interval index out of range")
		}
		idx += d
		if s := math.Float64frombits(binary.LittleEndian.Uint64(out[off+w:])); s-s != 0 {
			return errors.New("value is not finite")
		}
		off += w + 8
	}
	if off != len(out) {
		return errors.New("trailing bytes")
	}
	return nil
}

// foldOutput adds the sums of an output checkOutput has accepted into
// sums, growing it to the output's highest interval.
func foldOutput(sums []float64, out []byte) []float64 {
	k, w := binary.Uvarint(out[1:])
	off, idx := 1+w, 0
	for ; k > 0; k-- {
		d, w := binary.Uvarint(out[off:])
		idx += int(d)
		if idx >= len(sums) {
			sums = append(sums, make([]float64, idx+1-len(sums))...)
		}
		sums[idx] += math.Float64frombits(binary.LittleEndian.Uint64(out[off+w:]))
		off += w + 8
	}
	return sums
}
