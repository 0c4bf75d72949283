package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/stats"
)

// runE8 reproduces §V.C.2: the usability comparison. The paper rewrote
// the examples shipped with VisIt using Damaris and counted the code
// changes: more than a hundred lines with the VisIt API, fewer than ten
// with Damaris (one line per shared data object plus the external XML).
//
// This package's tests hold both integrations of the same cavity
// simulation (damaris_integration_test.go and visit_integration_test.go,
// run by TestCouplingsRun) with the instrumentation bracketed by
// BEGIN/END-INSTRUMENTATION markers; the experiment counts the marked
// lines.
func runE8(p *Pass, rep *Report) error {
	dir, err := sourceDir()
	if err != nil {
		return err
	}
	files := map[string]string{
		"damaris": filepath.Join(dir, "damaris_integration_test.go"),
		"visit":   filepath.Join(dir, "visit_integration_test.go"),
	}
	counts := map[string]int{}
	table := stats.NewTable(
		"instrumentation lines added to the cavity simulation per coupling",
		"coupling", "file", "instrumentation_loc")
	for _, name := range []string{"damaris", "visit"} {
		n, err := countInstrumentation(files[name])
		if err != nil {
			return err
		}
		counts[name] = n
		table.AddRow(name, filepath.Base(files[name]), n)
	}
	rep.Tables = []*stats.Table{table}
	rep.Checks = []Check{
		{
			Name:     "Damaris instrumentation lines",
			Paper:    "less than 10 lines of code changes (§V.C.2)",
			Measured: float64(counts["damaris"]), Unit: "loc", Lo: 1, Hi: 10,
		},
		{
			Name:     "VisIt-style instrumentation lines",
			Paper:    "more than a hundred lines of code (§V.C.2)",
			Measured: float64(counts["visit"]), Unit: "loc", Lo: 80,
		},
		{
			Name:     "effort ratio VisIt/Damaris",
			Paper:    "order-of-magnitude easier integration (§V.C.2)",
			Measured: float64(counts["visit"]) / float64(counts["damaris"]), Unit: "x", Lo: 8,
		},
	}
	return nil
}

// sourceDir locates this package's source directory from this file's
// location.
func sourceDir() (string, error) {
	_, thisFile, _, ok := runtime.Caller(0)
	if !ok {
		return "", fmt.Errorf("e8: cannot locate source directory")
	}
	return filepath.Dir(thisFile), nil
}

// countInstrumentation counts non-blank, non-comment-only lines between
// BEGIN-INSTRUMENTATION and END-INSTRUMENTATION markers.
func countInstrumentation(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("e8: %w", err)
	}
	count := 0
	inside := false
	for _, line := range strings.Split(string(data), "\n") {
		trimmed := strings.TrimSpace(line)
		switch {
		case strings.Contains(trimmed, "BEGIN-INSTRUMENTATION"):
			inside = true
		case strings.Contains(trimmed, "END-INSTRUMENTATION"):
			inside = false
		case inside && trimmed != "" && !strings.HasPrefix(trimmed, "//"):
			count++
		}
	}
	if count == 0 {
		return 0, fmt.Errorf("e8: no instrumentation markers in %s", path)
	}
	return count, nil
}
