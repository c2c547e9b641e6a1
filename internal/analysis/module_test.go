package analysis_test

import (
	"testing"

	"dista/internal/analysis"
	"dista/internal/analysis/loader"
)

// TestModuleClean is the driver test the lint gate rests on: distavet
// over the real module — every package, test files included — must
// report zero findings. Any invariant regression anywhere in the tree
// fails this test before it ever reaches make lint.
func TestModuleClean(t *testing.T) {
	if raceEnabled {
		// Type-checking the whole module is pure overhead under the
		// race detector; the non-race test run and make lint both
		// cover it.
		t.Skip("skipping whole-module analysis under -race")
	}
	root, err := loader.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := loader.New(root, true)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := prog.ModulePackages()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("module load found only %d packages; the loader is missing most of the tree", len(pkgs))
	}
	for _, d := range analysis.Run(prog, pkgs, analysis.All()) {
		t.Errorf("%s", d)
	}
}
