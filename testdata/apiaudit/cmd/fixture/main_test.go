package main

import (
	"testing"

	"example.com/apiaudit/internal/lib"
)

func BenchmarkBenchOnly(b *testing.B) {
	c := lib.Config{Seam: 1}
	for i := 0; i < b.N; i++ {
		c.Seam += lib.BenchOnly()
	}
}
