package dtm

// payload.go is the task codec — the one place that knows what a TD job's
// two kinds of task and their results look like on the wire. A scatter
// task carries one chunk of reports: per report only its contribution
// score ρ·(1−κ)·η in the Q1.30 fixed point of core.FixedScore, computed
// once at submit, and the ACS interval it falls in — no claim id, source,
// timestamp or text leaves the master, and a 4-byte score column is
// cheaper to encode, checksum, copy and decode than ρ, κ and η. Reports
// arrive in time order, so the intervals travel as runs: a run is one slot
// and how many consecutive reports fall in it. The encoder visits each
// report once, writing its score straight into the job's buffer and
// counting it into the current run; only a report outside the seconds the
// last slot holds costs a core.Grid lookup. The scores come first because
// their column's size is known before the visit and the runs' is not.
// Sums are integers, so they are exact: no report order, chunking or
// arrival order of the outputs can change one. The decode task is the
// job's last: its merged sums plus all a stateless worker needs to turn
// them into a truth timeline — the Eq. 4 window and the decoder
// configuration.
//
//	task v3:   0x04 | uvarint n | n × int32-LE score | uvarint base |
//	           uvarint span | uvarint r | r × (zigzag-varint Δidx,
//	           uvarint count), the first Δidx relative to base
//	output v2: 0x02 | uvarint k | k × (uvarint Δidx, zigzag-varint sum)
//	decode v2: 0x05 | uvarints window, emission kind (1),
//	           max iterations, freeze emissions (0 or 1), #thresholds |
//	           float64-LE tolerance, smoothing A, B, π, thresholds |
//	           output v2
//	truth v1:  0x01 | uvarint T | first value | uvarint run lengths
//
// The first byte of a task is its kind, of an answer its version; the
// retired task v1 (0x01), decode v1 (0x02, float sums), task v2 (0x03,
// float scores) and output v1 (0x01, float sums) are refused. Every score
// of a scatter task lies in [−2³⁰, 2³⁰], every index in [base, base+span),
// every count is at least one and the counts sum to n: run i covers the
// next count scores, in report order. An output lists, strictly ascending
// (the first Δidx is the index itself), every interval whose sum is
// non-zero plus always the highest touched, so the length of the job's
// series survives a trailing zero sum; its sums' magnitudes total no more
// than the scores behind them can. A timeline's runs alternate from the
// first value, none is empty and they sum to T. The decoders read outside
// input: they allocate nothing from a length they have not checked
// against the bytes that remain or a fixed cap.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/social-sensing/sstd/internal/core"
	"github.com/social-sensing/sstd/internal/obs"
	"github.com/social-sensing/sstd/internal/obs/flightrec"
	"github.com/social-sensing/sstd/internal/socialsensing"
	"github.com/social-sensing/sstd/internal/workqueue"
)

// truthVersion opens a truth timeline and outputVersion an output;
// kindScatter opens a scatter task and kindDecode a decode task, whose
// emission kind is discreteEmissions: the kind the retired Gaussian HMM
// used, 2, is refused.
const (
	truthVersion  byte = 1
	outputVersion byte = 2
	kindScatter   byte = 4
	kindDecode    byte = 5

	discreteEmissions = 1
)

// maxSpan caps the interval range one task may touch. A worker folds
// unsorted reports into a dense buffer of that many int64 sums, and a
// dense result of more slots than one frame can hold could not come back
// anyway.
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

// jobBufs recycles the jobs' payload memory.
var jobBufs = sync.Pool{New: func() any { return new(jobBuf) }}

// jobBuf is one job's payload memory and, while the job is encoded, the
// encode itself. Each chunk encodes into a buffer of its own, so the
// submitter and idle encode helpers can fill different chunks at once,
// and once every scatter task is answered the decode task reuses the
// first chunk's. The Manager puts a jobBuf back into jobBufs only when
// the job ends with no task ever sent twice: a requeued task's copy may
// still be on its way to a worker, so such a job leaves its buffers to
// the GC. That holds because no conn keeps what Write was given once it
// returns: the codec copies each payload into its frame.
type jobBuf struct {
	payloads [][]byte   // one per chunk: chunks[i].bytes
	chunks   []chunkBuf // every chunk buffer the jobBuf has had

	// The encode in progress: the job's chunks of reports and its grid,
	// the next chunk to claim, and the offers to helpers not yet taken
	// back or done with.
	reports [][]socialsensing.Report
	grid    core.Grid
	next    atomic.Int64
	helpers sync.WaitGroup
}

// chunkBuf is one chunk's payload, its runs while it is encoded, and what
// its encode found: the highest interval it touches plus one, or the
// error that refused it.
type chunkBuf struct {
	bytes []byte
	runs  []run
	top   int
	err   error
}

// decodeBuf is memory for the job's decode task: the first chunk's, which
// no scatter task reads once every one has answered.
func (jb *jobBuf) decodeBuf() *[]byte {
	if len(jb.chunks) == 0 {
		jb.chunks = append(jb.chunks, chunkBuf{})
	}
	return &jb.chunks[0].bytes
}

// run is a slot and how many consecutive reports fall in it.
type run struct{ slot, count int }

// encodeShared encodes one task payload per chunk of a job's reports into
// jb and reports the number of grid intervals the job spans — the bound
// handleResult holds the tasks' outputs to. A score core.FixedScore
// refuses is an error naming the claim and the report's position in the
// job. The caller shares the chunks with the helpers free to take them:
// it offers the job to each that holds no other, wakes it if it is
// idle, and takes back whatever offer no helper has taken once it has
// claimed the last chunk itself, so a helper that is busy, or slow to
// wake, never delays it. Every chunk has a buffer of its own and the
// result is read from them in chunk order, so neither the payloads nor
// the error depend on who encoded what.
func encodeShared(jb *jobBuf, chunks [][]socialsensing.Report, origin time.Time, interval time.Duration, helpers []encodeHelper) (intervals int, err error) {
	if interval <= 0 {
		return 0, errors.New("dtm: task encoding needs a positive interval")
	}
	for len(jb.chunks) < len(chunks) {
		jb.chunks = append(jb.chunks, chunkBuf{})
	}
	jb.reports, jb.grid = chunks, core.NewGrid(origin, interval)
	jb.next.Store(0)
	for i, offers := 0, 0; i < len(helpers) && offers < len(chunks)-1; i++ {
		// Count the offer first: a helper woken for an offer taken back
		// may take this one the moment it is made.
		jb.helpers.Add(1)
		h := &helpers[i]
		if !h.job.CompareAndSwap(nil, jb) {
			jb.helpers.Done()
			continue
		}
		offers++
		select {
		case h.wake <- struct{}{}:
		default:
		}
	}
	jb.encodeClaimed()
	for i := range helpers {
		if helpers[i].job.CompareAndSwap(jb, nil) {
			jb.helpers.Done()
		}
	}
	jb.helpers.Wait()
	jb.reports, jb.payloads = nil, jb.payloads[:0]
	for i := range chunks {
		c := &jb.chunks[i]
		if c.err != nil {
			return 0, c.err
		}
		intervals = max(intervals, c.top)
		jb.payloads = append(jb.payloads, c.bytes)
	}
	if intervals > maxSpan {
		return 0, fmt.Errorf("dtm: the job spans %d intervals, more than the %d its decode task can carry", intervals, maxSpan)
	}
	return intervals, nil
}

// encodeHelper is a goroutine that encodes chunks of the jobs offered to
// it. job holds the one offered and not yet taken, by the helper or back
// by its submitter; wake, unbuffered, reaches the helper only while it
// waits for work.
type encodeHelper struct {
	job  atomic.Pointer[jobBuf]
	wake chan struct{}
}

// run takes each job offered to h and encodes chunks of it until ctx
// ends.
func (h *encodeHelper) run(ctx context.Context) {
	for {
		select {
		case <-h.wake:
			if jb := h.job.Swap(nil); jb != nil {
				jb.encodeClaimed()
				jb.helpers.Done()
			}
		case <-ctx.Done():
			return
		}
	}
}

// encodeClaimed claims the job's chunks one at a time and encodes each,
// until none is left.
func (jb *jobBuf) encodeClaimed() {
	for i := int(jb.next.Add(1)) - 1; i < len(jb.reports); i = int(jb.next.Add(1)) - 1 {
		jb.encodeChunk(i)
	}
}

// encodeChunk encodes the job's chunk i into its own buffer.
func (jb *jobBuf) encodeChunk(i int) {
	c, chunk, cursor := &jb.chunks[i], jb.reports[i], jb.grid.Cursor()
	c.err = nil
	buf := binary.AppendUvarint(append(c.bytes[:0], kindScatter), uint64(len(chunk)))
	at := len(buf)
	buf = slices.Grow(buf, 4*len(chunk))[:at+4*len(chunk)]
	// The one visit of each report: its score into the payload, its slot
	// into the current run or a new one.
	scores, runs, lo, hi := buf[at:], c.runs[:0], math.MaxInt, -1
	for k := range chunk {
		r := &chunk[k]
		s, err := core.FixedScore(r)
		if err != nil {
			seen := 0
			for _, before := range jb.reports[:i] {
				seen += len(before)
			}
			c.err = fmt.Errorf("dtm: claim %s report %d: %w", r.Claim, seen+k, err)
			return
		}
		binary.LittleEndian.PutUint32(scores[4*k:], uint32(s))
		slot := cursor.Slot()
		if !cursor.Holds(r.Timestamp) {
			slot = cursor.Seek(r.Timestamp)
		}
		if len(runs) > 0 && runs[len(runs)-1].slot == slot {
			runs[len(runs)-1].count++
		} else {
			runs = append(runs, run{slot, 1})
			lo, hi = min(lo, slot), max(hi, slot)
		}
	}
	// An empty chunk has base 0, span 0. No span is over the job's
	// intervals, which encodeShared holds to maxSpan.
	c.runs, lo = runs, min(lo, hi+1)
	c.top = hi + 1
	buf = binary.AppendUvarint(binary.AppendUvarint(buf, uint64(lo)), uint64(hi-lo+1))
	buf = binary.AppendUvarint(buf, uint64(len(runs)))
	prev := lo
	for _, r := range runs {
		buf = binary.AppendUvarint(binary.AppendVarint(buf, int64(r.slot-prev)), uint64(r.count))
		prev = r.slot
	}
	c.bytes = buf
}

// taskView is a scatter task with its header decoded and its two columns
// located; the columns' contents are not yet checked.
type taskView struct {
	n, base, span, runs int
	scores, col         []byte
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
	return uvarints(p, 1, fields...)
}

// uvarints reads fields uvarints from p at off, returning the offset of
// what follows them.
func uvarints(p []byte, off int, fields ...*uint64) (int, error) {
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
	var n, base, span, runs uint64
	off, err := header(p, kindScatter, &n)
	if err != nil {
		return taskView{}, err
	}
	if n > uint64(len(p)-off)/4 {
		return taskView{}, errors.New("count exceeds the bytes that follow")
	}
	scores := p[off : off+4*int(n)]
	off, err = uvarints(p, off+len(scores), &base, &span, &runs)
	switch {
	case err != nil:
	case span > maxSpan:
		err = errors.New("interval span over the cap")
	case base > math.MaxInt64-maxSpan:
		err = errors.New("interval index out of range")
	// A run covers at least one report.
	case runs > n:
		err = errors.New("more runs than reports")
	}
	if err != nil {
		return taskView{}, err
	}
	return taskView{n: int(n), base: int(base), span: int(span), runs: int(runs), scores: scores, col: p[off:]}, nil
}

// sumsPool recycles the dense per-interval sums of both sides: the
// executors' fallback scatter and decode buffers, the master's per-job
// sums. runSumsPool recycles the executors' per-run sums. scratchPool
// holds the workers' HMM scratches and windowed series, each with the
// flight recorder it was made under: the kernels bind their probe ring
// once, so a scratch does not outlive the process's recorder.
var (
	sumsPool    = sync.Pool{New: func() any { return new([]int64) }}
	runSumsPool = sync.Pool{New: func() any { return new([]runSum) }}
	scratchPool sync.Pool
)

// runSum is a run's slot, relative to its task's base, and the sum of its
// scores.
type runSum struct {
	slot int
	sum  int64
}

type decodeScratch struct {
	*core.DecodeScratch
	rec    *flightrec.Recorder
	series []float64
}

// getSums takes n zeroed sums from sumsPool.
func getSums(n int) *[]int64 {
	buf := sumsPool.Get().(*[]int64)
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
	if len(payload) > 0 && payload[0] == kindDecode {
		return executeDecode(ctx, payload)
	}
	decode := workqueue.StartStageSpan(ctx, workqueue.StageDecode)
	t, err := parseTask(payload)
	if err != nil {
		return nil, obs.Wrap(malformed("payload", err))
	}
	runs := runSumsPool.Get().(*[]runSum)
	defer runSumsPool.Put(runs)
	var ascending bool
	*runs, ascending, err = t.sumRuns((*runs)[:0])
	if err != nil {
		return nil, obs.Wrap(malformed("payload", err))
	}
	decode.Finish()
	if t.n == 0 {
		return []byte{outputVersion, 0}, nil
	}

	encode := workqueue.StartStageSpan(ctx, workqueue.StageEncode)
	var out []byte
	if ascending {
		// Reports arrive in time order, so this is the usual case: each
		// slot has one run, and the output is the runs' own sums.
		out = appendRunOutput(nil, *runs, t.base)
	} else {
		out = denseOutput(*runs, t.span, t.base)
	}
	encode.Finish()
	return out, nil
}

// executeDecode runs a decode task: fold the merged sums into a dense
// buffer, window them, train and decode, answer with the timeline.
func executeDecode(ctx context.Context, payload []byte) ([]byte, error) {
	decode := workqueue.StartStageSpan(ctx, workqueue.StageDecode)
	sc, _ := scratchPool.Get().(*decodeScratch)
	if rec := flightrec.Active(); sc == nil || sc.rec != rec {
		sc = &decodeScratch{DecodeScratch: core.NewDecodeScratch(), rec: rec}
	}
	defer scratchPool.Put(sc)
	dec, err := readDecodeTask(payload, &sc.series)
	if err != nil {
		return nil, obs.Wrap(malformed("payload", err))
	}
	decode.Finish()

	// The kernel's EM-phase flight events nest under the job's decode span,
	// which the task was submitted under.
	sc.SetFlightParent(workqueue.TaskSpan(ctx))
	truth, err := dec.DecodeInto(sc.DecodeScratch, sc.series)
	sc.SetFlightParent(0)
	if err != nil {
		return nil, obs.Wrap(err)
	}
	encode := workqueue.StartStageSpan(ctx, workqueue.StageEncode)
	out := appendTruth(make([]byte, 0, 32), truth)
	encode.Finish()
	return out, nil
}

// readDecodeTask checks a decode task in full and returns a decoder of its
// configuration, with the Eq. 4 series of its merged sums in series.
func readDecodeTask(payload []byte, series *[]float64) (*core.Decoder, error) {
	end, window, dec, err := parseDecodeHeader(payload)
	if err != nil {
		return nil, err
	}
	sums := getSums(0)
	defer sumsPool.Put(sums)
	n, err := foldOutput(sums, payload[end:], maxSpan, math.MaxInt64)
	if err != nil {
		return nil, err
	}
	*series = core.Window(*series, (*sums)[:n], window)
	return dec, nil
}

// sumRuns checks the task's runs and scores and appends to dst each run's
// slot and the sum of its scores, in task order. It reports whether the
// slots strictly ascend.
func (t taskView) sumRuns(dst []runSum) (_ []runSum, ascending bool, err error) {
	dst = slices.Grow(dst, t.runs)
	off, at, i := 0, 0, 0
	ascending = true
	for k := 0; k < t.runs; k++ {
		var d int64
		var c uint64
		if off+1 < len(t.col) && t.col[off]|t.col[off+1] < 0x80 {
			// A one-byte Δidx and count, the usual run.
			z := uint64(t.col[off])
			d, c, off = int64(z>>1)^-int64(z&1), uint64(t.col[off+1]), off+2
		} else {
			var w int
			if d, w = binary.Varint(t.col[off:]); w <= 0 {
				return nil, false, errors.New("truncated run")
			}
			off += w
			if c, w = binary.Uvarint(t.col[off:]); w <= 0 {
				return nil, false, errors.New("truncated run")
			}
			off += w
		}
		// at is inside [0, span), so neither bound can wrap.
		if d < int64(-at) || d >= int64(t.span-at) {
			return nil, false, errors.New("interval index out of range")
		}
		if c == 0 || c > uint64(t.n-i) {
			return nil, false, errors.New("run counts do not sum to the report count")
		}
		// The first Δidx is relative to base, so it may be 0.
		ascending = ascending && (d > 0 || k == 0)
		at += int(d)
		acc := int64(0)
		for run := t.scores[4*i : 4*(i+int(c))]; len(run) >= 4; run = run[4:] {
			s := int32(binary.LittleEndian.Uint32(run))
			if s < -core.ScoreOne || s > core.ScoreOne {
				return nil, false, errors.New("score magnitude over 2^30")
			}
			acc += int64(s)
		}
		dst = append(dst, runSum{at, acc})
		i += int(c)
	}
	if i != t.n {
		return nil, false, errors.New("run counts do not sum to the report count")
	}
	if off != len(t.col) {
		return nil, false, errors.New("trailing bytes")
	}
	return dst, ascending, nil
}

// denseOutput is the output of runs whose slots do not ascend: their sums
// added into span zeroed slots, slot 0 being interval base, then listed up
// to the highest slot a run touched.
func denseOutput(runs []runSum, span, base int) []byte {
	buf := getSums(span)
	defer sumsPool.Put(buf)
	sums, top := *buf, 0
	for _, r := range runs {
		sums[r.slot] += r.sum
		top = max(top, r.slot)
	}
	return appendOutput(nil, sums[:top+1], base)
}

// uvarint is binary.Uvarint. A value that ends within the first 8 of at
// least 8 bytes, as a sum's does, is read with one load and no loop, so its
// length costs no mispredicted branch.
func uvarint(p []byte) (uint64, int) {
	if len(p) < 8 {
		return binary.Uvarint(p)
	}
	x := binary.LittleEndian.Uint64(p)
	stop := ^x & 0x8080808080808080 // the high bit of each byte that ends a value
	if stop == 0 {
		return binary.Uvarint(p)
	}
	n := bits.TrailingZeros64(stop) + 1 // the bits of the value's bytes
	x &= 1<<n - 1
	x = x&0x7f | x>>1&(0x7f<<7) | x>>2&(0x7f<<14) | x>>3&(0x7f<<21) |
		x>>4&(0x7f<<28) | x>>5&(0x7f<<35) | x>>6&(0x7f<<42) | x>>7&(0x7f<<49)
	return x, n / 8
}

// malformed marks a payload, output or truth timeline the codec refuses as
// a decode-stage error.
func malformed(what string, err error) error {
	return workqueue.StageError(workqueue.StageDecode, fmt.Errorf("dtm: bad task %s: %w", what, err))
}

// appendOutput appends sums, slot 0 being interval base, to dst as an
// output v2: the non-zero sums and always the last. A first pass, with no
// branch on the sums, counts the pairs and bounds their bytes, so dst
// grows at most once; a second writes them.
func appendOutput(dst []byte, sums []int64, base int) []byte {
	if len(sums) == 0 {
		return append(dst, outputVersion, 0)
	}
	last := len(sums) - 1
	k, widest := 1, zigzag(sums[last])
	for _, s := range sums[:last] {
		k += nonZero(s)
		widest |= zigzag(s)
	}
	out, prev := reserveOutput(dst, k, base+last, widest), 0
	for i, s := range sums[:last] {
		if s != 0 {
			out = appendPair(out, base+i-prev, s)
			prev = base + i
		}
	}
	return appendPair(out, base+last-prev, sums[last])
}

// appendRunOutput is appendOutput for runs whose slots strictly ascend, at
// least one: the last run holds the highest slot.
func appendRunOutput(dst []byte, runs []runSum, base int) []byte {
	last := runs[len(runs)-1]
	runs = runs[:len(runs)-1]
	k, widest := 1, zigzag(last.sum)
	for _, r := range runs {
		k += nonZero(r.sum)
		widest |= zigzag(r.sum)
	}
	out, prev := reserveOutput(dst, k, base+last.slot, widest), 0
	for _, r := range runs {
		if r.sum != 0 {
			out = appendPair(out, base+r.slot-prev, r.sum)
			prev = base + r.slot
		}
	}
	return appendPair(out, base+last.slot-prev, last.sum)
}

// reserveOutput appends an output's header to dst for k pairs, growing it
// once to hold them too: no Δidx is over top and no zigzag sum has a bit
// widest lacks.
func reserveOutput(dst []byte, k, top int, widest uint64) []byte {
	if n := 1 + uvarintLen(uint64(k)) + k*(uvarintLen(uint64(top))+uvarintLen(widest)); cap(dst)-len(dst) < n {
		// One allocation, in a -race build too: there slices.Grow's
		// append of a make costs two.
		dst = append(make([]byte, 0, len(dst)+n), dst...)
	}
	return binary.AppendUvarint(append(dst, outputVersion), uint64(k))
}

// appendPair appends one output pair: a Δidx and a sum.
func appendPair(dst []byte, d int, s int64) []byte {
	return binary.AppendVarint(binary.AppendUvarint(dst, uint64(d)), s)
}

// zigzag is the unsigned value binary.AppendVarint writes for s.
func zigzag(s int64) uint64 { return uint64(s<<1) ^ uint64(s>>63) }

// nonZero is 1 when s is not 0 and 0 when it is, without a branch: s|-s
// has its sign bit set exactly when s is not 0.
func nonZero(s int64) int { return int(uint64(s|-s) >> 63) }

// foldOutput checks out in full — well formed, every interval index below
// limit, the sums' magnitudes totalling at most mass — while it adds its
// sums into *sums, growing that with zeroed slots to reach at least the
// highest interval, and returns the length of the series out describes:
// that interval plus one. mass is what the scores behind out can add up
// to; it keeps every sum and window over the output inside int64. A
// refused output adds nothing: what the pairs before the damage added is
// taken back.
func foldOutput(sums *[]int64, out []byte, limit int, mass uint64) (n int, err error) {
	var k uint64
	start, err := header(out, outputVersion, &k)
	if err != nil {
		return 0, err
	}
	// A pair is at least one index byte and one sum byte.
	if k > uint64(len(out)-start)/2 {
		return 0, errors.New("count exceeds the bytes that follow")
	}
	dst, off, idx, folded := *sums, start, uint64(0), 0
	for ; folded < int(k); folded++ {
		d, w := uint64(0), 1
		if off < len(out) && out[off] < 0x80 {
			d = uint64(out[off]) // a one-byte Δidx, the usual pair
		} else if d, w = binary.Uvarint(out[off:]); w <= 0 {
			err = errors.New("truncated")
			break
		}
		z, v := uvarint(out[off+w:])
		if v <= 0 {
			err = errors.New("truncated")
			break
		}
		if folded > 0 && d == 0 {
			err = errors.New("interval indices not strictly ascending")
			break
		}
		// Both terms are at most limit, so the sum cannot wrap.
		if d >= uint64(limit) || idx+d >= uint64(limit) {
			err = errors.New("interval index out of range")
			break
		}
		// The sum and its magnitude, with no branch on its sign.
		s, a := int64(z>>1)^-int64(z&1), z>>1+z&1
		if a > mass {
			err = errors.New("sums exceed what the scores can add up to")
			break
		}
		idx, mass, off = idx+d, mass-a, off+w+v
		if int(idx) >= len(dst) {
			// Double, so that a series read from nothing clears each slot once.
			size := min(max(int(idx)+1, 2*len(dst)), limit)
			grown := slices.Grow(dst, size-len(dst))[:size]
			clear(grown[len(dst):])
			dst = grown
		}
		dst[idx] += s
		n = int(idx) + 1
	}
	if err == nil && off != len(out) {
		err = errors.New("trailing bytes")
	}
	if err != nil {
		// Take back what the pairs before the damage added, and the slots.
		off, idx = start, 0
		for ; folded > 0; folded-- {
			d, w := binary.Uvarint(out[off:])
			s, v := binary.Varint(out[off+w:])
			idx += d
			dst[idx] -= s
			off += w + v
		}
		dst, n = dst[:len(*sums)], 0
	}
	*sums = dst
	return n, err
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
	for _, v := range [...]int{min(max(window, 1), maxSpan), discreteEmissions, max(tr.MaxIterations, 0), freeze, len(cfg.Thresholds)} {
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
	case kind != discreteEmissions:
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
	cfg := core.DecoderConfig{Thresholds: params[4:]}
	cfg.Train.MaxIterations, cfg.Train.FreezeEmissions = int(iterations), freeze == 1
	cfg.Train.Tolerance, cfg.Train.SmoothA, cfg.Train.SmoothB, cfg.Train.SmoothPi = params[0], params[1], params[2], params[3]
	dec, err = core.NewDecoder(cfg)
	return off + 8*len(params), int(w), dec, err
}

// appendTruth appends a decoded timeline as a truth v1.
func appendTruth(dst []byte, truth []socialsensing.TruthValue) []byte {
	dst = binary.AppendUvarint(append(dst, truthVersion), uint64(len(truth)))
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
// intervals into estimates starting at starts, refusing any other timeline.
func decodeEstimates(out []byte, n int, starts []time.Time) ([]core.Estimate, error) {
	var t uint64
	off, err := header(out, truthVersion, &t)
	switch {
	case err != nil:
		return nil, err
	case t != uint64(n):
		return nil, fmt.Errorf("a timeline of %d intervals for a series of %d", t, n)
	case off == len(out) || out[off] > byte(socialsensing.True):
		return nil, errors.New("no first truth value")
	}
	v, off := socialsensing.TruthValue(out[off]), off+1
	est := make([]core.Estimate, n)
	for at := 0; at < n; v = socialsensing.True - v {
		d, w := binary.Uvarint(out[off:])
		if w <= 0 || d == 0 || d > uint64(n-at) {
			return nil, errors.New("runs do not tile the timeline")
		}
		for end := at + int(d); at < end; at++ {
			est[at] = core.Estimate{Start: starts[at], Value: v}
		}
		off += w
	}
	if off != len(out) {
		return nil, errors.New("trailing bytes")
	}
	return est, nil
}
