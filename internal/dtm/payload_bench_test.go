package dtm

import (
	"context"
	"runtime"
	"testing"
	"time"

	"github.com/social-sensing/sstd/internal/core"
	"github.com/social-sensing/sstd/internal/socialsensing"
	"github.com/social-sensing/sstd/internal/tracegen"
)

// benchJob is one payload_heavy-shaped job: the Boston claim closest to
// that workload's mean of 6.9k reports, tweet text included, split into 4
// tasks of ≈1.7k on the hour grid. The BenchmarkWire* rows below land in
// BENCH_wire.json next to the frame codec's, per task.
func benchJob(b *testing.B) (chunks [][]socialsensing.Report, origin time.Time) {
	b.Helper()
	gen, err := tracegen.New(tracegen.BostonBombing(), 42)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := gen.Generate(0.5)
	if err != nil {
		b.Fatal(err)
	}
	var job []socialsensing.Report
	for _, reports := range tr.ReportsByClaim() {
		if job == nil || abs(len(reports)-6900) < abs(len(job)-6900) {
			job = reports
		}
	}
	return splitReports(job, 4), tr.Start
}

func abs(x int) int { return max(x, -x) }

var benchSink int

// reportNsPerReport adds b's time per report to its row: one op handles
// the job's reports, divided between its chunks parts.
func reportNsPerReport(b *testing.B, chunks [][]socialsensing.Report, parts int) {
	reports := 0
	for _, c := range chunks {
		reports += len(c)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())*float64(parts)/float64(b.N)/float64(reports), "ns/report")
}

// BenchmarkWireTaskEncode is SubmitJob's encode of the whole job per op:
// a buffer from the pool, all four payloads into it, the buffer back.
func BenchmarkWireTaskEncode(b *testing.B) {
	chunks, origin := benchJob(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := jobBufs.Get().(*jobBuf)
		if _, err := encodeTasks(buf, chunks, origin, time.Hour); err != nil {
			b.Fatal(err)
		}
		benchSink += len(buf.payloads[0])
		jobBufs.Put(buf)
	}
	reportNsPerReport(b, chunks, 1)
}

// BenchmarkWireTaskEncodeShared is BenchmarkWireTaskEncode with the
// chunks offered to SubmitJob's encode helpers, one per core beyond the
// caller's.
func BenchmarkWireTaskEncodeShared(b *testing.B) {
	chunks, origin := benchJob(b)
	helpers := startHelpers(b, min(runtime.GOMAXPROCS(0), len(chunks))-1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := jobBufs.Get().(*jobBuf)
		if _, err := encodeShared(buf, chunks, origin, time.Hour, helpers); err != nil {
			b.Fatal(err)
		}
		benchSink += len(buf.payloads[0])
		jobBufs.Put(buf)
	}
	reportNsPerReport(b, chunks, 1)
}

// BenchmarkWireTaskExec executes one of the job's scatter tasks per op, at
// both workloads' shapes: the minute grid's tasks span thousands of slots
// with hundreds of runs each, the hour grid's a few dozen slots.
func BenchmarkWireTaskExec(b *testing.B) {
	for _, shape := range decodeShapes {
		b.Run(shape.name, func(b *testing.B) {
			chunks, origin := shapeJob(b, shape.scale, shape.grid)
			payloads, _, err := encodeJob(chunks, origin, shape.grid)
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := ExecuteTask(ctx, payloads[i%len(payloads)])
				if err != nil {
					b.Fatal(err)
				}
				benchSink += len(out)
			}
			reportNsPerReport(b, chunks, len(chunks))
		})
	}
}

// BenchmarkWireOutputFold is the collector's fold of one scatter output
// into its job's sums as it arrives, checked in full first.
func BenchmarkWireOutputFold(b *testing.B) {
	chunks, origin := benchJob(b)
	payloads, intervals, err := encodeJob(chunks, origin, time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	out, err := ExecuteTask(context.Background(), payloads[0])
	if err != nil {
		b.Fatal(err)
	}
	js := &jobState{intervals: intervals, sums: getSums(intervals)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(*js.sums)
		if err := js.fold(out, len(chunks[0])); err != nil {
			b.Fatal(err)
		}
		benchSink += js.seriesLen
	}
}

// decodeShapes are the two series lengths the end-to-end benchmark decodes:
// decode_heavy's minute grid (the first Boston claim at scale 0.05, the
// series of core's BenchmarkDecodeClaimLong, T ≈ 5.7k) and payload_heavy's
// hour grid (benchJob's claim, T = 96).
var decodeShapes = []struct {
	name  string
	scale float64
	grid  time.Duration
}{{"minute", 0.05, time.Minute}, {"hour", 0.5, time.Hour}}

// shapeJob is the job of a shape, split into 4 chunks: benchJob's on the
// hour grid, the first Boston claim's at the shape's scale on the minute
// grid.
func shapeJob(b *testing.B, scale float64, grid time.Duration) ([][]socialsensing.Report, time.Time) {
	b.Helper()
	if grid != time.Minute {
		return benchJob(b)
	}
	gen, err := tracegen.New(tracegen.BostonBombing(), 42)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := gen.Generate(scale)
	if err != nil {
		b.Fatal(err)
	}
	return splitReports(tr.ReportsByClaim()[tr.Claims[0].ID], 4), tr.Start
}

// benchOutputs is one job of the shape, executed: the four scatter outputs
// the collector folds, their report counts and the job's interval count.
func benchOutputs(b *testing.B, scale float64, grid time.Duration) (outputs [][]byte, reports []int, intervals int) {
	b.Helper()
	chunks, origin := shapeJob(b, scale, grid)
	payloads, intervals, err := encodeJob(chunks, origin, grid)
	if err != nil {
		b.Fatal(err)
	}
	outputs, reports = make([][]byte, len(payloads)), make([]int, len(payloads))
	for i, p := range payloads {
		if outputs[i], err = ExecuteTask(context.Background(), p); err != nil {
			b.Fatal(err)
		}
		reports[i] = len(chunks[i])
	}
	return outputs, reports, intervals
}

// benchDecodeTask is the decode task of a job of the shape.
func benchDecodeTask(b *testing.B, scale float64, grid time.Duration) (payload []byte, n int) {
	b.Helper()
	outputs, _, intervals := benchOutputs(b, scale, grid)
	return mergeJob(b, benchHeader, outputs, intervals, inOrder(len(outputs)))
}

var benchHeader = appendDecodeHeader(nil, core.DefaultACSConfig().WindowIntervals, core.DefaultDecoderConfig())

// BenchmarkWireDecodeTaskEncode is the collector's share of a job's decode
// phase: fold the four scatter outputs into the job's sums as they arrive,
// then encode the decode task into the job's buffer.
func BenchmarkWireDecodeTaskEncode(b *testing.B) {
	for _, shape := range decodeShapes {
		b.Run(shape.name, func(b *testing.B) {
			outputs, reports, intervals := benchOutputs(b, shape.scale, shape.grid)
			var buf []byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				js := &jobState{intervals: intervals, sums: getSums(intervals)}
				for k, out := range outputs {
					if err := js.fold(out, reports[k]); err != nil {
						b.Fatal(err)
					}
				}
				buf = appendOutput(append(buf[:0], benchHeader...), (*js.sums)[:js.seriesLen], 0)
				sumsPool.Put(js.sums)
				benchSink += len(buf)
			}
		})
	}
}

// BenchmarkWireDecodeTaskExec is a worker's decode task end to end: parse,
// fold, window, train, Viterbi, run-length encode. BenchmarkWireDecodeKernel
// is core.Decoder.DecodeInto alone on the same windowed series, measured
// in the same process: the difference is what the task adds.
func BenchmarkWireDecodeTaskExec(b *testing.B) {
	for _, shape := range decodeShapes {
		b.Run(shape.name, func(b *testing.B) {
			payload, _ := benchDecodeTask(b, shape.scale, shape.grid)
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := ExecuteTask(ctx, payload)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += len(out)
			}
		})
	}
}

func BenchmarkWireDecodeKernel(b *testing.B) {
	for _, shape := range decodeShapes {
		b.Run(shape.name, func(b *testing.B) {
			payload, _ := benchDecodeTask(b, shape.scale, shape.grid)
			var series []float64
			dec, err := readDecodeTask(payload, &series)
			if err != nil {
				b.Fatal(err)
			}
			sc := core.NewDecodeScratch()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				truth, err := dec.DecodeInto(sc, series)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += len(truth)
			}
		})
	}
}

// BenchmarkWireTruthExpand is finalize's share: validate the answer and
// expand it into the job's estimates.
func BenchmarkWireTruthExpand(b *testing.B) {
	for _, shape := range decodeShapes {
		b.Run(shape.name, func(b *testing.B) {
			payload, n := benchDecodeTask(b, shape.scale, shape.grid)
			out, err := ExecuteTask(context.Background(), payload)
			if err != nil {
				b.Fatal(err)
			}
			starts := core.NewGrid(time.Unix(0, 0), shape.grid).Starts(nil, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				est, err := decodeEstimates(out, n, starts)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += len(est)
			}
		})
	}
}

// BenchmarkWireDecoderBuild prices the decoder a stateless worker builds
// per decode task, to set against BenchmarkWireDecodeTaskExec/hour.
func BenchmarkWireDecoderBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, window, _, err := parseDecodeHeader(benchHeader)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += window
	}
}
