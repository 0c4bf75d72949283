package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/paper.golden")

// TestPaperGolden runs every registered experiment at paper scale
// (Default()) through one pass and compares the masked reports (measured cells and timed
// checks shown as "~") with testdata/paper.golden. A deliberate change
// to a simulated number shows up as a reviewable diff of that file:
//
//	go test ./internal/experiments -run TestPaperGolden -update
func TestPaperGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment, runtime legs included")
	}
	var b strings.Builder
	p := NewPass(Default())
	for _, e := range Registry() {
		rep, err := p.Run(e)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		b.WriteString(rep.Masked())
		b.WriteByte('\n')
	}
	// The default 9,216-core Damaris leg alone is asked for by nine
	// experiments, E6's and A2's spelled-out defaults included; the pass
	// runs it, and every other shared leg, once.
	if len(p.legs) > 66 || p.requests != 85 {
		t.Errorf("pass ran %d DES legs for %d requests, want at most 66 for 85",
			len(p.legs), p.requests)
	}
	got := b.String()
	path := filepath.Join("testdata", "paper.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if diff := lineDiff(string(want), got); diff != "" {
		t.Errorf("reports differ from %s:\n%s", path, diff)
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
