package dtm

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/social-sensing/sstd/internal/core"
)

// denseScatter is the dense scatter path, kept as the reference the
// executor's run sums are held to: every run's scores added one after the
// other into span zeroed slots, then every slot up to the highest touched
// listed by refAppendOutput.
func denseScatter(t taskView) ([]byte, error) {
	sums := make([]int64, t.span)
	off, at, i, top := 0, 0, 0, 0
	for k := 0; k < t.runs; k++ {
		d, w := binary.Varint(t.col[off:])
		if w <= 0 {
			return nil, errors.New("truncated run")
		}
		off += w
		c, w := binary.Uvarint(t.col[off:])
		if w <= 0 {
			return nil, errors.New("truncated run")
		}
		off += w
		if d < int64(-at) || d >= int64(t.span-at) {
			return nil, errors.New("interval index out of range")
		}
		if c == 0 || c > uint64(t.n-i) {
			return nil, errors.New("run counts do not sum to the report count")
		}
		at += int(d)
		top = max(top, at)
		for run := t.scores[4*i : 4*(i+int(c))]; len(run) >= 4; run = run[4:] {
			s := int32(binary.LittleEndian.Uint32(run))
			if s < -core.ScoreOne || s > core.ScoreOne {
				return nil, errors.New("score magnitude over 2^30")
			}
			sums[at] += int64(s)
		}
		i += int(c)
	}
	if i != t.n {
		return nil, errors.New("run counts do not sum to the report count")
	}
	if off != len(t.col) {
		return nil, errors.New("trailing bytes")
	}
	if t.n == 0 {
		return []byte{outputVersion, 0}, nil
	}
	return refAppendOutput(nil, sums[:top+1], t.base), nil
}

// refAppendOutput is the two-pass output encoder the one-pass count is
// held to: sizes summed with a branch per slot, then every non-zero sum
// and the last written.
func refAppendOutput(dst []byte, sums []int64, base int) []byte {
	last := len(sums) - 1
	k := 0
	for i, s := range sums {
		if s != 0 || i == last {
			k++
		}
	}
	out, prev := binary.AppendUvarint(append(dst, outputVersion), uint64(k)), 0
	for i, s := range sums {
		if s != 0 || i == last {
			out = binary.AppendVarint(binary.AppendUvarint(out, uint64(base+i-prev)), s)
			prev = base + i
		}
	}
	return out
}

// rawTask encodes a scatter task v3 from its columns: run r covers the
// next counts[r] scores, in slot slots[r], relative to base.
func rawTask(scores []int32, base, span int, slots, counts []int) []byte {
	p := binary.AppendUvarint([]byte{kindScatter}, uint64(len(scores)))
	for _, s := range scores {
		p = binary.LittleEndian.AppendUint32(p, uint32(s))
	}
	p = binary.AppendUvarint(binary.AppendUvarint(p, uint64(base)), uint64(span))
	p = binary.AppendUvarint(p, uint64(len(slots)))
	prev := 0
	for r, slot := range slots {
		p = binary.AppendUvarint(binary.AppendVarint(p, int64(slot-prev)), uint64(counts[r]))
		prev = slot
	}
	return p
}

// TestScatterRunsMatchDense holds the executor's output, built from its
// runs' sums when their slots ascend and through a dense buffer when they
// do not, to the dense reference byte for byte, over generated chunks:
// runs ascending and not, scores that cancel to a zero sum inside the
// chunk and at its top slot, an empty chunk, a single report and spans at
// maxSpan. Both paths are exercised, and which one a chunk takes is
// checked. The collector's merge encode is held to the reference encoder
// on the same sums.
func TestScatterRunsMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	score := func() int32 {
		switch rng.Intn(4) {
		case 0:
			return int32(rng.Intn(2*core.ScoreOne+1) - core.ScoreOne)
		case 1:
			return core.ScoreOne * int32(1-2*rng.Intn(2))
		default:
			return int32(rng.Intn(200) - 100)
		}
	}
	// chunk draws runs over span slots, ascending or in any order, each
	// of 1..maxRun scores; a run cancels to zero with probability 1/4.
	type chunk struct {
		scores        []int32
		slots, counts []int
	}
	draw := func(runs, span, maxRun int, ascending bool) chunk {
		var c chunk
		slot := 0
		for r := 0; r < runs; r++ {
			if ascending {
				slot += 1 + rng.Intn(max(1, 2*span/max(runs, 1)))
				if r == 0 {
					slot = rng.Intn(3)
				}
				if slot >= span {
					break
				}
			} else {
				slot = rng.Intn(span)
			}
			n := 1 + rng.Intn(maxRun)
			if rng.Intn(4) == 0 && n > 1 {
				// Pairs of opposite scores: the run sums to zero.
				n &^= 1
				for k := 0; k < n; k += 2 {
					s := score()
					c.scores = append(c.scores, s, -s)
				}
			} else {
				for k := 0; k < n; k++ {
					c.scores = append(c.scores, score())
				}
			}
			c.slots, c.counts = append(c.slots, slot), append(c.counts, n)
		}
		return c
	}
	type tcase struct {
		name      string
		c         chunk
		base      int
		span      int
		ascending bool
	}
	var cases []tcase
	add := func(name string, c chunk, base, span int) {
		asc := true
		for r := 1; r < len(c.slots); r++ {
			asc = asc && c.slots[r] > c.slots[r-1]
		}
		cases = append(cases, tcase{name, c, base, span, asc})
	}
	add("empty", chunk{}, 0, 0)
	add("single report", chunk{[]int32{score()}, []int{0}, []int{1}}, 7, 1)
	add("single zero report", chunk{[]int32{0}, []int{0}, []int{1}}, 7, 1)
	add("top slot cancels", chunk{[]int32{5, 3, -3}, []int{0, 4}, []int{1, 2}}, 100, 5)
	add("only zero sums", chunk{[]int32{9, -9, 1, -1}, []int{1, 3}, []int{2, 2}}, 0, 4)
	add("repeated slot cancels the top", chunk{[]int32{4, 2, -4}, []int{3, 1, 3}, []int{1, 1, 1}}, 0, 4)
	add("maxSpan ascending", chunk{[]int32{1, 2}, []int{0, maxSpan - 1}, []int{1, 1}}, 12345, maxSpan)
	add("maxSpan descending", chunk{[]int32{1, 2}, []int{maxSpan - 1, 0}, []int{1, 1}}, 0, maxSpan)
	add("maxSpan top cancels", chunk{[]int32{7, core.ScoreOne, -core.ScoreOne}, []int{0, maxSpan - 1}, []int{1, 2}}, 1, maxSpan)
	for trial := 0; trial < 300; trial++ {
		span := 1 + rng.Intn(3000)
		runs := rng.Intn(min(span, 400) + 1)
		// Past 2^7 and 2^14: multi-byte bases, Δidx, counts and sums.
		base := []int{0, rng.Intn(100), rng.Intn(1 << 20)}[trial%3]
		add("ascending", draw(runs, span, 1+rng.Intn(300), true), base, span)
		add("any order", draw(runs, span, 1+rng.Intn(30), false), base, span)
	}

	paths := map[bool]int{}
	for _, tc := range cases {
		p := rawTask(tc.c.scores, tc.base, tc.span, tc.c.slots, tc.c.counts)
		view, err := parseTask(p)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, err := denseScatter(view)
		if err != nil {
			t.Fatalf("%s: dense reference: %v", tc.name, err)
		}
		got, err := ExecuteTask(context.Background(), p)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s (base %d, span %d, %d runs): output %x, dense reference %x", tc.name, tc.base, tc.span, len(tc.c.slots), got, want)
		}
		_, ascending, err := view.sumRuns(nil)
		if err != nil || ascending != tc.ascending {
			t.Fatalf("%s: sumRuns says ascending=%v (%v), want %v", tc.name, ascending, err, tc.ascending)
		}
		if len(tc.c.slots) > 1 {
			paths[ascending]++
		}
	}
	if paths[true] < 100 || paths[false] < 100 {
		t.Fatalf("chunks by path %v: want both paths taken", paths)
	}

	// The merge encode over dense sums: zeros, runs of zeros, a zero last
	// sum and sums of every magnitude, math.MinInt64 among them.
	for trial := 0; trial < 500; trial++ {
		sums := make([]int64, rng.Intn(300))
		for i := range sums {
			switch rng.Intn(4) {
			case 0:
				sums[i] = int64(rng.Uint64())
			case 1:
				sums[i] = int64(rng.Intn(1000) - 500)
			}
		}
		if trial%7 == 0 && len(sums) > 0 {
			sums[len(sums)-1] = 0
		}
		if trial%11 == 0 && len(sums) > 0 {
			sums[rng.Intn(len(sums))] = math.MinInt64
		}
		base := rng.Intn(1 << 22)
		header := []byte{kindDecode, 1, 2, 3}
		if got, want := appendOutput(bytes.Clone(header), sums, base), refAppendOutput(bytes.Clone(header), sums, base); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: appendOutput %x, reference %x", trial, got, want)
		}
	}
}

// TestUvarintMatchesBinary holds the codec's uvarint reader to
// binary.Uvarint on every length from 1 to 10 bytes, at the ends of a
// buffer and inside one, on overflowing and truncated input.
func TestUvarintMatchesBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	check := func(p []byte) {
		t.Helper()
		gotV, gotN := uvarint(p)
		wantV, wantN := binary.Uvarint(p)
		if gotV != wantV || gotN != wantN {
			t.Fatalf("uvarint(%x) = %d, %d; binary.Uvarint %d, %d", p, gotV, gotN, wantV, wantN)
		}
	}
	for trial := 0; trial < 20000; trial++ {
		v := rng.Uint64() >> rng.Intn(64)
		p := binary.AppendUvarint(nil, v)
		for tail := 0; tail < 10; tail++ {
			check(p)
			p = append(p, byte(rng.Intn(256)))
		}
		check(p[:len(p)/2])
		raw := make([]byte, rng.Intn(12))
		for i := range raw {
			raw[i] = byte(rng.Intn(256)) | byte(rng.Intn(2))<<7
		}
		check(raw)
	}
	check(bytes.Repeat([]byte{0xff}, 12))
	check(append(bytes.Repeat([]byte{0xff}, 9), 0x01))
	check(append(bytes.Repeat([]byte{0xff}, 9), 0x02))
	check(append(bytes.Repeat([]byte{0x80}, 7), 0x00))
}
