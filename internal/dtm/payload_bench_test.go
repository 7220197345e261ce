package dtm

import (
	"context"
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

// BenchmarkWireTaskExec executes one of the job's scatter tasks per op.
func BenchmarkWireTaskExec(b *testing.B) {
	chunks, origin := benchJob(b)
	payloads, _, err := encodeJob(chunks, origin, time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := ExecuteTask(ctx, payloads[i%4])
		if err != nil {
			b.Fatal(err)
		}
		benchSink += len(out)
	}
	reportNsPerReport(b, chunks, len(chunks))
}

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
	sums := make([]float64, intervals)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := checkOutput(out, intervals); err != nil {
			b.Fatal(err)
		}
		clear(sums)
		benchSink += foldOutput(sums, out)
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

// benchOutputs is one job of the shape, executed: the four scatter outputs
// submitDecode starts from, and the job's interval count.
func benchOutputs(b *testing.B, scale float64, grid time.Duration) (outputs [][]byte, intervals int) {
	b.Helper()
	chunks, origin := benchJob(b)
	if grid == time.Minute {
		gen, err := tracegen.New(tracegen.BostonBombing(), 42)
		if err != nil {
			b.Fatal(err)
		}
		tr, err := gen.Generate(scale)
		if err != nil {
			b.Fatal(err)
		}
		chunks, origin = splitReports(tr.ReportsByClaim()[tr.Claims[0].ID], 4), tr.Start
	}
	payloads, intervals, err := encodeJob(chunks, origin, grid)
	if err != nil {
		b.Fatal(err)
	}
	outputs = make([][]byte, len(payloads))
	for i, p := range payloads {
		if outputs[i], err = ExecuteTask(context.Background(), p); err != nil {
			b.Fatal(err)
		}
	}
	return outputs, intervals
}

var benchHeader = appendDecodeHeader(nil, core.DefaultACSConfig().WindowIntervals, core.DefaultDecoderConfig())

// BenchmarkWireDecodeTaskEncode is the collector's share of a job's decode
// phase: fold the four scatter outputs and encode the decode task.
func BenchmarkWireDecodeTaskEncode(b *testing.B) {
	for _, shape := range decodeShapes {
		b.Run(shape.name, func(b *testing.B) {
			outputs, intervals := benchOutputs(b, shape.scale, shape.grid)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				payload, n := mergeOutputs(nil, benchHeader, outputs, intervals)
				benchSink += len(payload) + n
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
			outputs, intervals := benchOutputs(b, shape.scale, shape.grid)
			payload, _ := mergeOutputs(nil, benchHeader, outputs, intervals)
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
			outputs, intervals := benchOutputs(b, shape.scale, shape.grid)
			payload, n := mergeOutputs(nil, benchHeader, outputs, intervals)
			end, window, dec, err := parseDecodeHeader(payload)
			if err != nil {
				b.Fatal(err)
			}
			sums, series, sc := make([]float64, n), make([]float64, n), core.NewDecodeScratch()
			foldOutput(sums, payload[end:])
			windowedSeries(series, sums, window)
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
			outputs, intervals := benchOutputs(b, shape.scale, shape.grid)
			payload, n := mergeOutputs(nil, benchHeader, outputs, intervals)
			out, err := ExecuteTask(context.Background(), payload)
			if err != nil {
				b.Fatal(err)
			}
			origin := time.Unix(0, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				est, err := decodeEstimates(out, n, "claim", origin, shape.grid)
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
