package main

import (
	"strings"
	"testing"
)

// TestUnknownExperimentRefused: an -exp name no experiment answers to is an
// error naming the known ones, and nothing is printed before it.
func TestUnknownExperimentRefused(t *testing.T) {
	for _, exp := range []string{"nosuch", "table2,nosuch"} {
		var out strings.Builder
		err := run([]string{"-exp", exp}, &out)
		if err == nil || !strings.Contains(err.Error(), `"nosuch"`) || !strings.Contains(err.Error(), "ablation-pid") {
			t.Errorf("-exp %s: err = %v, want an error naming nosuch and the known experiments", exp, err)
		}
		if out.Len() != 0 {
			t.Errorf("-exp %s printed %q before refusing", exp, out.String())
		}
	}
}
