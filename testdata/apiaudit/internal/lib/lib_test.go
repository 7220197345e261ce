package lib

import "testing"

func TestSum(t *testing.T) {
	if got := (Config{TestSet: 2}).Sum(); got != 2 {
		t.Fatal(got)
	}
}
