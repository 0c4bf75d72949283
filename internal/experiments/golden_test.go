package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.golden from this run")

// TestQuickGolden runs every registered experiment at quick scale and
// compares the masked reports (measured cells and timed checks shown as
// "~") with testdata/quick.golden. A deliberate change to a simulated
// number shows up as a reviewable diff of that file:
//
//	go test ./internal/experiments -run TestQuickGolden -update
func TestQuickGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment, runtime legs included")
	}
	var b strings.Builder
	for _, e := range Registry() {
		rep, err := e.Run(Quick())
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		b.WriteString(rep.Masked())
		b.WriteByte('\n')
	}
	got := b.String()
	path := filepath.Join("testdata", "quick.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if diff := lineDiff(string(want), got); diff != "" {
		t.Errorf("quick-scale reports differ from %s:\n%s", path, diff)
	}
}

// lineDiff lists the lines at which want and got differ, by line
// number, or returns "" when they are equal.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < max(len(w), len(g)); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d:\n  want %s\n  got  %s\n", i+1, wl, gl)
		}
	}
	return b.String()
}
