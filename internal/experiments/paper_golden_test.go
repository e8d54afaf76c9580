package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

var updateGolden = flag.Bool("update", false, "rewrite paper_artifacts.golden")

// renderPaperArtifacts renders the paper's own evaluation artifacts —
// Figure 4 and Figure 5 as CSV (full float precision) and Tables 4 and 5
// as ASCII — in one document.
func renderPaperArtifacts(t *testing.T, opt Options) string {
	t.Helper()
	var b strings.Builder
	fig4, err := Figure4(opt)
	if err != nil {
		t.Fatal(err)
	}
	fig5, err := Figure5(opt)
	if err != nil {
		t.Fatal(err)
	}
	tab4, err := Table4(opt)
	if err != nil {
		t.Fatal(err)
	}
	tab5, err := Table5(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, part := range []struct{ name, body string }{
		{"figure4.csv", fig4.CSV()},
		{"figure5.csv", fig5.CSV()},
		{"table4.txt", tab4.ASCII()},
		{"table5.txt", tab5.ASCII()},
	} {
		b.WriteString("== " + part.name + "\n")
		b.WriteString(part.body)
	}
	return b.String()
}

// TestPaperArtifactsGolden pins Figures 4/5 and Tables 4/5 byte for byte at
// goldenOptions() effort, at parallelism 1 and 4 and from a cold result
// cache each time. The golden was rendered before the CPU simulator's
// event loop was rewritten; every estimator (simulation, Markov, Petri
// net) feeds these artifacts, so no engine change may move them.
// Regenerate with `go test ./internal/experiments/ -run PaperArtifacts
// -update` only when the random stream law changes (xrand.StreamVersion).
func TestPaperArtifactsGolden(t *testing.T) {
	path := filepath.Join("testdata", "paper_artifacts.golden")
	for _, parallelism := range []int{1, 4} {
		core.ResetEstimateCache()
		opt := goldenOptions()
		opt.Parallelism = parallelism
		got := renderPaperArtifacts(t, opt)
		if *updateGolden && parallelism == 1 {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("parallelism %d: paper artifacts drifted from %s.\n--- got ---\n%s--- want ---\n%s",
				parallelism, path, got, want)
		}
	}
	core.ResetEstimateCache()
}
