package dtm

import (
	"context"
	"testing"
	"time"

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

func BenchmarkWireTaskEncode(b *testing.B) {
	chunks, origin := benchJob(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payloads, _, err := encodeTasks(chunks[i%4:i%4+1], origin, time.Hour)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += len(payloads[0])
	}
}

func BenchmarkWireTaskExec(b *testing.B) {
	chunks, origin := benchJob(b)
	payloads, _, err := encodeTasks(chunks, origin, time.Hour)
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
}

func BenchmarkWireOutputFold(b *testing.B) {
	chunks, origin := benchJob(b)
	payloads, intervals, err := encodeTasks(chunks, origin, time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	out, err := ExecuteTask(context.Background(), payloads[0])
	if err != nil {
		b.Fatal(err)
	}
	sums := make([]float64, 0, intervals)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := checkOutput(out, intervals); err != nil {
			b.Fatal(err)
		}
		sums = foldOutput(sums[:0], out)
	}
	benchSink += len(sums)
}
