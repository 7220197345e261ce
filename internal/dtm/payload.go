package dtm

// payload.go is the task codec — the one place that knows what a TD job's
// two kinds of task and their results look like on the wire. A scatter
// task carries one chunk of reports: per report only the ACS interval it
// falls in and its contribution score ρ·(1−κ)·η, computed once at submit,
// as two columns — no claim id, source, timestamp or text leaves the
// master, and one score column is cheaper to encode, checksum, copy and
// decode than ρ, κ and η. The encoder visits each report once, storing its
// core.Grid slot and its score in pooled columns, then writes the payloads
// from the columns. The decode task is the job's last: its merged
// sums plus all a stateless worker needs to turn them into a truth
// timeline — the Eq. 4 window and the decoder configuration.
//
//	task v1:   0x01 | uvarint n | uvarint base | uvarint span |
//	           n × zigzag-varint Δidx (the first relative to base) |
//	           n × float64-LE score
//	output v1: 0x01 | uvarint k | k × (uvarint Δidx, float64-LE sum)
//	decode v1: 0x02 | uvarints window, emission kind, max iterations,
//	           freeze emissions (0 or 1), #thresholds | float64-LE
//	           tolerance, smoothing A, B, π, thresholds | output v1
//	truth v1:  0x01 | uvarint T | first value | uvarint run lengths
//
// The first byte of a task is its kind. Every index of a scatter task lies
// in [base, base+span). An output lists, strictly ascending (the first
// Δidx is the index itself), every interval whose sum is non-zero plus
// always the highest touched, so the length of the job's series survives a
// trailing zero sum. A timeline's runs alternate from the first value, none
// is empty and they sum to T. The decoders read outside input: they
// allocate nothing from a length they have not checked against the bytes
// that remain or a fixed cap.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"time"

	"github.com/social-sensing/sstd/internal/core"
	"github.com/social-sensing/sstd/internal/obs"
	"github.com/social-sensing/sstd/internal/obs/flightrec"
	"github.com/social-sensing/sstd/internal/socialsensing"
	"github.com/social-sensing/sstd/internal/workqueue"
)

// payloadVersion opens a scatter task, an output and a truth timeline;
// kindDecode opens a decode task.
const (
	payloadVersion byte = 1
	kindDecode     byte = 2
)

// maxSpan caps the interval range one task may touch. The worker folds
// into a dense buffer of that many floats, and a dense result of more
// slots than one frame can hold could not come back anyway.
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

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// varintLen is the encoded size of binary.AppendVarint(nil, int64(d)).
func varintLen(d int) int { return uvarintLen(uint64(d<<1) ^ uint64(d>>63)) }

// columnPool recycles encodeTasks' scratch: each report's slot and score.
var columnPool = sync.Pool{New: func() any { return new(columns) }}

type columns struct {
	idx    []int
	scores []float64
}

// encodeTasks encodes one task payload per chunk of a job's reports, all
// in a single buffer, and reports the number of grid intervals the job
// spans — the bound handleResult holds the tasks' outputs to. A NaN or ±Inf
// contribution score is an error naming the claim and the report's
// position in the job: it would poison every window it falls in.
func encodeTasks(chunks [][]socialsensing.Report, origin time.Time, interval time.Duration) (payloads [][]byte, intervals int, err error) {
	if interval <= 0 {
		return nil, 0, errors.New("dtm: task encoding needs a positive interval")
	}
	col := columnPool.Get().(*columns)
	defer columnPool.Put(col)
	n := 0
	for _, chunk := range chunks {
		n += len(chunk)
	}
	col.idx, col.scores = slices.Grow(col.idx[:0], n)[:n], slices.Grow(col.scores[:0], n)[:n]
	grid := core.NewGrid(origin, interval)
	// The one visit of each report: its slot and score into the columns,
	// and each chunk's index range and encoded size, so the job gets one
	// buffer of exactly the size its payloads fill.
	type layout struct{ base, span int }
	layouts := make([]layout, len(chunks))
	size, seen := 0, 0
	for c, chunk := range chunks {
		first, lo, hi, prev := 0, 0, -1, 0
		for i := range chunk {
			// Eq. 1 through the pointer: ContributionScore's value receiver
			// would copy all 96 bytes of the report.
			r := &chunk[i]
			s := float64(r.Attitude) * (1 - r.Uncertainty) * r.Independence
			if s-s != 0 {
				return nil, 0, fmt.Errorf("dtm: claim %s report %d: contribution score is %v", r.Claim, seen+i, s)
			}
			idx := grid.Index(r.Timestamp)
			col.idx[seen+i], col.scores[seen+i] = idx, s
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
	if intervals > maxSpan {
		return nil, 0, fmt.Errorf("dtm: the job spans %d intervals, more than the %d its decode task can carry", intervals, maxSpan)
	}
	buf := make([]byte, 0, size)
	payloads = make([][]byte, len(chunks))
	seen = 0
	for c, chunk := range chunks {
		start := len(buf)
		buf = append(buf, payloadVersion)
		buf = binary.AppendUvarint(buf, uint64(len(chunk)))
		buf = binary.AppendUvarint(buf, uint64(layouts[c].base))
		buf = binary.AppendUvarint(buf, uint64(layouts[c].span))
		prev := layouts[c].base
		for _, idx := range col.idx[seen : seen+len(chunk)] {
			buf = binary.AppendVarint(buf, int64(idx-prev))
			prev = idx
		}
		for _, s := range col.scores[seen : seen+len(chunk)] {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s))
		}
		seen += len(chunk)
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

// header reads the first byte, which must be kind, and then fields
// uvarints from p, returning the offset of what follows them.
func header(p []byte, kind byte, fields ...*uint64) (int, error) {
	if len(p) == 0 {
		return 0, errors.New("truncated")
	}
	if p[0] != kind {
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
	off, err := header(p, payloadVersion, &n, &base, &span)
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

// floatPool recycles the dense per-interval buffers of both sides: the
// executors' scatter and decode buffers, the master's merge accumulators.
// scratchPool holds the workers' HMM scratches, each with the flight
// recorder it was made under: the kernels bind their probe ring once, so a
// scratch does not outlive the process's recorder.
var (
	floatPool   = sync.Pool{New: func() any { return new([]float64) }}
	scratchPool sync.Pool
)

type decodeScratch struct {
	*core.DecodeScratch
	rec *flightrec.Recorder
}

// getFloats takes n zeroed floats from floatPool.
func getFloats(n int) *[]float64 {
	buf := floatPool.Get().(*[]float64)
	*buf = slices.Grow((*buf)[:0], n)[:n]
	clear(*buf)
	return buf
}

// ExecuteTask is the worker-side body of both kinds of task: the partial
// per-interval contribution-score sums of one chunk of reports (the
// preprocessing step of §III-E), or the job's truth timeline — Eq. 4's
// window over the merged sums, then Baum-Welch and Viterbi on the claim's
// own HMM, the TD job the paper hands its workers. It is a
// workqueue.Executor; a malformed payload is a decode-stage error.
func ExecuteTask(ctx context.Context, payload []byte) ([]byte, error) {
	return executeTask(ctx, payload, 0)
}

// executeTask is ExecuteTask with an artificial cost of perReport busy
// time for every report of a scatter chunk.
func executeTask(ctx context.Context, payload []byte, perReport time.Duration) ([]byte, error) {
	if len(payload) > 0 && payload[0] == kindDecode {
		return executeDecode(ctx, payload)
	}
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
	buf := getFloats(t.span)
	defer floatPool.Put(buf)
	top, err := t.scatter(*buf)
	if err != nil {
		return nil, obs.Wrap(malformed("payload", err))
	}
	decode.Finish()

	encode := workqueue.StartStageSpan(ctx, workqueue.StageEncode)
	out := encodeOutput(nil, (*buf)[:top+1], t.base)
	encode.Finish()
	return out, nil
}

// executeDecode runs a decode task: fold the merged sums into a dense
// buffer, window them, train and decode, answer with the timeline.
func executeDecode(ctx context.Context, payload []byte) ([]byte, error) {
	decode := workqueue.StartStageSpan(ctx, workqueue.StageDecode)
	end, window, dec, err := parseDecodeHeader(payload)
	if err != nil {
		return nil, obs.Wrap(malformed("payload", err))
	}
	merged := payload[end:]
	n, err := checkOutput(merged, maxSpan)
	if err != nil {
		return nil, obs.Wrap(malformed("payload", err))
	}
	sums, series := getFloats(n), getFloats(n)
	defer floatPool.Put(sums)
	defer floatPool.Put(series)
	foldOutput(*sums, merged)
	windowedSeries(*series, *sums, window)
	decode.Finish()

	// The kernel's EM-phase flight events nest under the job's decode span,
	// which the task was submitted under.
	sc, _ := scratchPool.Get().(*decodeScratch)
	if rec := flightrec.Active(); sc == nil || sc.rec != rec {
		sc = &decodeScratch{core.NewDecodeScratch(), rec}
	}
	defer scratchPool.Put(sc)
	sc.SetFlightParent(workqueue.TaskSpan(ctx))
	truth, err := dec.DecodeInto(sc.DecodeScratch, *series)
	sc.SetFlightParent(0)
	if err != nil {
		return nil, obs.Wrap(err)
	}
	encode := workqueue.StartStageSpan(ctx, workqueue.StageEncode)
	out := appendTruth(make([]byte, 0, 32), truth)
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

// malformed marks a payload, output or truth timeline the codec refuses as
// a decode-stage error.
func malformed(what string, err error) error {
	return workqueue.StageError(workqueue.StageDecode, fmt.Errorf("dtm: bad task %s: %w", what, err))
}

// encodeOutput returns prefix followed by sums, slot 0 being interval
// base, as an output v1: the non-zero sums and always the last.
func encodeOutput(prefix []byte, sums []float64, base int) []byte {
	last := len(sums) - 1
	k, size, prev := 0, 0, 0
	for i, s := range sums {
		if s != 0 || i == last {
			k, size, prev = k+1, size+uvarintLen(uint64(base+i-prev))+8, base+i
		}
	}
	out := make([]byte, len(prefix)+1+uvarintLen(uint64(k))+size)
	off := copy(out, prefix)
	out[off] = payloadVersion
	off += 1 + binary.PutUvarint(out[off+1:], uint64(k))
	prev = 0
	for i, s := range sums {
		if s != 0 || i == last {
			off += binary.PutUvarint(out[off:], uint64(base+i-prev))
			binary.LittleEndian.PutUint64(out[off:], math.Float64bits(s))
			off, prev = off+8, base+i
		}
	}
	return out
}

// checkOutput validates an output in full — well formed, every interval
// index below limit — and returns the length of the series it describes:
// its highest interval plus one.
func checkOutput(out []byte, limit int) (n int, err error) {
	var k uint64
	off, err := header(out, payloadVersion, &k)
	if err != nil {
		return 0, err
	}
	// A pair is at least one index byte and eight sum bytes.
	if k > uint64(len(out)-off)/9 {
		return 0, errors.New("count exceeds the bytes that follow")
	}
	idx := uint64(0)
	for i := uint64(0); i < k; i++ {
		d, w := binary.Uvarint(out[off:])
		if w <= 0 || len(out)-off-w < 8 {
			return 0, errors.New("truncated")
		}
		if i > 0 && d == 0 {
			return 0, errors.New("interval indices not strictly ascending")
		}
		// Both terms are at most limit, so the sum cannot wrap.
		if d >= uint64(limit) || idx+d >= uint64(limit) {
			return 0, errors.New("interval index out of range")
		}
		idx += d
		if s := math.Float64frombits(binary.LittleEndian.Uint64(out[off+w:])); s-s != 0 {
			return 0, errors.New("value is not finite")
		}
		off += w + 8
		n = int(idx) + 1
	}
	if off != len(out) {
		return 0, errors.New("trailing bytes")
	}
	return n, nil
}

// foldOutput adds the sums of an output checkOutput has accepted into
// sums, which reaches past the output's highest interval, and returns the
// length of the series the output describes.
func foldOutput(sums []float64, out []byte) (n int) {
	k, w := binary.Uvarint(out[1:])
	off, idx := 1+w, 0
	for ; k > 0; k-- {
		d, w := binary.Uvarint(out[off:])
		idx += int(d)
		sums[idx] += math.Float64frombits(binary.LittleEndian.Uint64(out[off+w:]))
		off += w + 8
		n = idx + 1
	}
	return n
}

// windowedSeries writes into series the sliding-window ACS sequence of
// Eq. 4 over the per-interval sums.
func windowedSeries(series, sums []float64, window int) {
	acc := 0.0
	for t := range sums {
		acc += sums[t]
		if t >= window {
			acc -= sums[t-window]
		}
		series[t] = acc
	}
}

// appendDecodeHeader encodes what every decode task of one Manager starts
// with. WarmStart does not travel: a job's decode always starts cold.
func appendDecodeHeader(dst []byte, window int, cfg core.DecoderConfig) []byte {
	tr, freeze := cfg.Train, 0
	if tr.FreezeEmissions {
		freeze = 1
	}
	dst = append(dst, kindDecode)
	// A window is at least one interval and no longer than any series.
	for _, v := range [...]int{min(max(window, 1), maxSpan), int(cfg.Emissions), max(tr.MaxIterations, 0), freeze, len(cfg.Thresholds)} {
		dst = binary.AppendUvarint(dst, uint64(v))
	}
	for _, v := range append([]float64{tr.Tolerance, tr.SmoothA, tr.SmoothB, tr.SmoothPi}, cfg.Thresholds...) {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// parseDecodeHeader reads a decode task up to its merged sums: the offset
// they start at, the window, and a decoder of the configuration.
func parseDecodeHeader(p []byte) (end, window int, dec *core.Decoder, err error) {
	var w, kind, iterations, freeze, thresholds uint64
	off, err := header(p, kindDecode, &w, &kind, &iterations, &freeze, &thresholds)
	switch {
	case err != nil:
	case w == 0 || w > maxSpan:
		err = errors.New("window out of range")
	case kind != uint64(core.DiscreteEmissions) && kind != uint64(core.GaussianEmissions):
		err = errors.New("unknown emission kind")
	case iterations > math.MaxInt32 || freeze > 1:
		err = errors.New("training parameter out of range")
	case thresholds > uint64(len(p)-off)/8 || len(p)-off < 8*(4+int(thresholds)):
		err = errors.New("parameter count exceeds the bytes that follow")
	}
	if err != nil {
		return 0, 0, nil, err
	}
	params, bad := make([]float64, 4+thresholds), 0.0
	for i := range params {
		params[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[off+8*i:]))
		bad += params[i] - params[i] // 0 for a finite value, NaN otherwise, and NaN survives the sum
	}
	if bad != 0 {
		return 0, 0, nil, errors.New("decoder parameter is not finite")
	}
	cfg := core.DecoderConfig{Emissions: core.EmissionKind(kind), Thresholds: params[4:]}
	cfg.Train.MaxIterations, cfg.Train.FreezeEmissions = int(iterations), freeze == 1
	cfg.Train.Tolerance, cfg.Train.SmoothA, cfg.Train.SmoothB, cfg.Train.SmoothPi = params[0], params[1], params[2], params[3]
	dec, err = core.NewDecoder(cfg)
	return off + 8*len(params), int(w), dec, err
}

// appendTruth appends a decoded timeline as a truth v1.
func appendTruth(dst []byte, truth []socialsensing.TruthValue) []byte {
	dst = binary.AppendUvarint(append(dst, payloadVersion), uint64(len(truth)))
	first := socialsensing.False
	if len(truth) > 0 {
		first = truth[0]
	}
	dst = append(dst, byte(first))
	for i, j := 0, 0; i < len(truth); i = j {
		for j = i + 1; j < len(truth) && truth[j] == truth[i]; j++ {
		}
		dst = binary.AppendUvarint(dst, uint64(j-i))
	}
	return dst
}

// decodeEstimates expands the truth v1 answering a decode task of n
// intervals into the job's estimates, refusing anything but that timeline.
func decodeEstimates(out []byte, n int, claim socialsensing.ClaimID, origin time.Time, interval time.Duration) ([]core.Estimate, error) {
	var t uint64
	off, err := header(out, payloadVersion, &t)
	switch {
	case err != nil:
		return nil, err
	case t != uint64(n):
		return nil, fmt.Errorf("a timeline of %d intervals for a series of %d", t, n)
	case off == len(out) || out[off] > byte(socialsensing.True):
		return nil, errors.New("no first truth value")
	}
	v := socialsensing.TruthValue(out[off])
	off++
	est := make([]core.Estimate, n)
	for at := 0; at < n; v = socialsensing.True - v {
		d, w := binary.Uvarint(out[off:])
		if w <= 0 || d == 0 || d > uint64(n-at) {
			return nil, errors.New("runs do not tile the timeline")
		}
		for end := at + int(d); at < end; at++ {
			est[at] = core.Estimate{Claim: claim, Interval: at, Start: origin.Add(time.Duration(at) * interval), Value: v}
		}
		off += w
	}
	if off != len(out) {
		return nil, errors.New("trailing bytes")
	}
	return est, nil
}
