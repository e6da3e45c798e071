package main

import (
	"testing"

	"github.com/memdos/sds/internal/detect"
	"github.com/memdos/sds/internal/workload"
)

// TestRunEveryScheme drives the monitor with every registered alias over a
// short attacked run; FaceNet is periodic, so SDS/P applies too.
func TestRunEveryScheme(t *testing.T) {
	for _, s := range detect.Schemes() {
		t.Run(s.Alias, func(t *testing.T) {
			if err := run(workload.FaceNet, "buslock", 5, 10, s.Alias, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRunRejectsUnknownScheme(t *testing.T) {
	if err := run(workload.FaceNet, "buslock", 5, 10, "bogus", 1); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}
