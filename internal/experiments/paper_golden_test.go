//go:build paper

package experiments

import "testing"

// TestPaperGolden is TestQuickGolden at paper scale (Default()), pinned
// in testdata/paper.golden. It takes about 20 s, so it runs only under
// the paper build tag (make smoke-paper):
//
//	go test -tags paper ./internal/experiments -run TestPaperGolden -update
func TestPaperGolden(t *testing.T) {
	checkGolden(t, "paper.golden", Default())
}
