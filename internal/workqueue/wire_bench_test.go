package workqueue

// BenchmarkWire* measures the wire format — the encode/decode ns/op
// behind BENCH_wire.json and the Eq. 10 transfer-term discussion in
// DESIGN.md. The one-connection throughput benchmark at the bottom is
// the end-to-end batching number: tasks/sec through a single
// master↔worker connection, lock-step vs batched.

import (
	"context"
	"encoding/binary"
	"fmt"
	"testing"
	"time"
)

// benchSpanResultMsg is the traced lock-step reply: a one-result
// result-batch plus all five worker stage spans and the clock stamps —
// the shape that dominates master-side decode.
func benchSpanResultMsg() message {
	m := message{
		Type:         msgResultBatch,
		Results:      []Result{{TaskID: "claim-17/3", JobID: "claim-17", WorkerID: "w-1", Output: []byte(`{"sums":{"0":1.5}}`), Elapsed: 2 * time.Millisecond}},
		SentUnixNano: 1491040800002000000,
		TaskDelayNs:  150000,
	}
	for _, stage := range []string{StageRecv, StageDecode, StageExec, StageEncode, StageSend} {
		m.Spans = append(m.Spans, RemoteSpan{
			TraceID: "f3a9b2c1-42", Parent: 91, Name: stage, TaskID: "claim-17/3",
			StartUnixNano: 1491040800000000000, DurNs: 400000,
		})
	}
	m.CRC = m.checksum()
	return m
}

// benchTaskBatchMsg is a dispatch of n traced tasks with the master's
// send stamp; n = 1 is the lock-step frame.
func benchTaskBatchMsg(n int) message {
	m := message{Type: msgTaskBatch, SentUnixNano: 1491040800000000000}
	for i := 0; i < n; i++ {
		t := benchTracedTask()
		t.ID = fmt.Sprintf("claim-17/%d", i)
		m.Tasks = append(m.Tasks, t)
	}
	m.CRC = m.checksum()
	return m
}

// BenchmarkWireEncodeTaskBinary: serializing one traced lock-step
// dispatch (a one-task task-batch).
func BenchmarkWireEncodeTaskBinary(b *testing.B) {
	m := benchTaskBatchMsg(1)
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = appendWireFrame(buf[:0], &m)
	}
}

// BenchmarkWireEncodeResultSpansBinary: serializing a traced result with
// its five stage spans — the worker-side per-result cost.
func BenchmarkWireEncodeResultSpansBinary(b *testing.B) {
	m := benchSpanResultMsg()
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = appendWireFrame(buf[:0], &m)
	}
}

// BenchmarkWireDecodeResultSpansBinary: parsing that traced result back
// — the master-side per-result cost Eq. 10 charges to the transfer term.
func BenchmarkWireDecodeResultSpansBinary(b *testing.B) {
	m := benchSpanResultMsg()
	frame := appendWireFrame(nil, &m)
	_, used := binary.Uvarint(frame[2:])
	body := frame[2+used:]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := decodeWireBody(body, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireEncodeTaskBatch8Binary: eight traced tasks in one frame —
// the batched dispatch the master sends per claim.
func BenchmarkWireEncodeTaskBatch8Binary(b *testing.B) {
	m := benchTaskBatchMsg(8)
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = appendWireFrame(buf[:0], &m)
	}
}

// BenchmarkWireTasksPerSecOneConn: end-to-end tasks through ONE
// master↔worker connection (real handler, real worker loop, net.Pipe):
// the lock-step protocol vs a 64-task batched window. ns/op is per task;
// the reported tasks/s metric is the headline batching number.
func BenchmarkWireTasksPerSecOneConn(b *testing.B) {
	for _, bc := range []struct {
		name  string
		batch int
	}{
		{"lockstep", 0},
		{"batched64", 64},
	} {
		b.Run(bc.name, func(b *testing.B) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			m := NewMaster(MasterConfig{Seed: 1, ResultBuffer: 1024, BatchSize: bc.batch})
			p := NewPool(m, func(_ context.Context, payload []byte) ([]byte, error) {
				return payload, nil
			})
			defer p.Close()
			p.Resize(ctx, 1)
			payload := []byte(`{"claim":"claim-17","reports":[{"s":"src-1","t":"2017-04-01T10:00:00Z"}]}`)

			b.ReportAllocs()
			b.ResetTimer()
			go func() {
				for i := 0; i < b.N; i++ {
					_ = m.Submit(Task{ID: fmt.Sprintf("t%d", i), JobID: "bench", Payload: payload})
				}
			}()
			for i := 0; i < b.N; i++ {
				<-m.Results()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tasks/s")
		})
	}
}
