package perfrecup

import (
	"runtime"
	"testing"

	"taskprov/internal/core"
	"taskprov/internal/workloads"
)

// TestExportsIndependentOfGOMAXPROCS: a seeded session's provenance is a
// function of the seed alone, so the executions, transfers and warnings
// exports are byte-identical whether the host runs it on one OS thread or
// on two.
func TestExportsIndependentOfGOMAXPROCS(t *testing.T) {
	export := func(procs int) map[string]string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		wf, err := workloads.New("imageprocessing")
		if err != nil {
			t.Fatal(err)
		}
		art, err := core.Run(workloads.DefaultSession("imageprocessing", "job-gomaxprocs", 7), wf)
		if err != nil {
			t.Fatal(err)
		}
		if got := runtime.GOMAXPROCS(0); got != procs {
			t.Fatalf("GOMAXPROCS = %d during the run, want %d", got, procs)
		}
		execs, err := ExecutionsView(art)
		transfers, terr := TransfersView(art)
		warns, werr := WarningsView(art)
		return map[string]string{
			"executions": viewCSV(t, execs, err),
			"transfers":  viewCSV(t, transfers, terr),
			"warnings":   viewCSV(t, warns, werr),
		}
	}
	before := runtime.GOMAXPROCS(0)
	one, two := export(1), export(2)
	if after := runtime.GOMAXPROCS(0); after != before {
		t.Fatalf("GOMAXPROCS left at %d, was %d", after, before)
	}
	for _, view := range []string{"executions", "transfers", "warnings"} {
		t.Logf("%s: %d bytes", view, len(one[view]))
		if one[view] == "" || one[view] != two[view] {
			t.Errorf("%s export differs between GOMAXPROCS=1 (%d bytes) and 2 (%d bytes)", view, len(one[view]), len(two[view]))
		}
	}
}
