package damaris

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// locBudgetFile holds the line budget: one ceiling per package
// directory and one for the whole module.
const locBudgetFile = "docs/LOC_BUDGET.md"

// locModule is the budget table's name for the whole-module total.
const locModule = "module"

// locRow matches one row of the budget table: | `dir` | ceiling | … |
var locRow = regexp.MustCompile("^\\| `([^`]+)` \\| ([0-9,]+) \\|")

// countLoc counts the non-test Go lines under root per package
// directory, as `make loc` prints them: every *.go file that is not a
// _test.go file, outside hidden directories (.git, the benchmark's
// .bench_build), keyed by its directory relative to root ("." for the
// root package), plus the module total under locModule.
func countLoc(root string) (map[string]int, error) {
	counts := map[string]int{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		n := bytes.Count(data, []byte("\n"))
		counts[filepath.ToSlash(rel)] += n
		counts[locModule] += n
		return nil
	})
	return counts, err
}

// readLocBudget parses the ceilings out of the budget table.
func readLocBudget(path string) (map[string]int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ceilings := map[string]int{}
	for _, line := range strings.Split(string(data), "\n") {
		m := locRow.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		n, err := strconv.Atoi(strings.ReplaceAll(m[2], ",", ""))
		if err != nil {
			return nil, fmt.Errorf("%s: %q: %v", path, line, err)
		}
		if _, dup := ceilings[m[1]]; dup {
			return nil, fmt.Errorf("%s: %q has two rows", path, m[1])
		}
		ceilings[m[1]] = n
	}
	if len(ceilings) == 0 {
		return nil, fmt.Errorf("%s: no budget rows", path)
	}
	return ceilings, nil
}

// locProblems compares counts with ceilings: a directory over its
// ceiling, a directory with Go code and no row, and a row for a
// directory that has none.
func locProblems(counts, ceilings map[string]int) []string {
	var problems []string
	for dir, n := range counts {
		ceiling, ok := ceilings[dir]
		switch {
		case !ok:
			problems = append(problems, fmt.Sprintf("%s: %d non-test lines and no row in %s", dir, n, locBudgetFile))
		case n > ceiling:
			problems = append(problems, fmt.Sprintf("%s: %d non-test lines, ceiling %d", dir, n, ceiling))
		}
	}
	for dir := range ceilings {
		if _, ok := counts[dir]; !ok {
			problems = append(problems, fmt.Sprintf("%s: row in %s, but no non-test Go lines", dir, locBudgetFile))
		}
	}
	sort.Strings(problems)
	return problems
}

// TestLocBudget holds every package directory and the module to the
// non-test line ceilings in docs/LOC_BUDGET.md (make loc-check runs
// it). A directory under its ceiling is logged, so the change that
// shrank it can lower the ceiling.
func TestLocBudget(t *testing.T) {
	counts, err := countLoc(".")
	if err != nil {
		t.Fatal(err)
	}
	ceilings, err := readLocBudget(locBudgetFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range locProblems(counts, ceilings) {
		t.Error(p)
	}
	for dir, n := range counts {
		if c, ok := ceilings[dir]; ok && n < c {
			t.Logf("%s: %d non-test lines, %d under its ceiling %d", dir, n, c-n, c)
		}
	}
}

// TestLocBudgetRejects feeds the budget check a tree that outgrew its
// table: a directory over its ceiling, one with no row and a row whose
// directory is gone must each be named.
func TestLocBudgetRejects(t *testing.T) {
	root := t.TempDir()
	write := func(path, content string) {
		t.Helper()
		full := filepath.Join(root, filepath.FromSlash(path))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("a.go", "package a\n\nfunc A() {}\n")
	write("a_test.go", "package a\n\n\n\n\n\n")
	write("big/b.go", "package big\n\nfunc B() {}\nfunc C() {}\n")
	write("new/n.go", "package n\n")
	write(".hidden/h.go", "package h\n")
	write(locBudgetFile, "| Directory | Ceiling | Set in |\n|---|---:|---|\n"+
		"| `.` | 3 | x |\n| `big` | 3 | x |\n| `gone` | 10 | x |\n| `module` | 1,000 | x |\n")
	counts, err := countLoc(root)
	if err != nil {
		t.Fatal(err)
	}
	if counts["."] != 3 || counts["big"] != 4 || counts[locModule] != 8 {
		t.Fatalf("counts %v, want . 3, big 4, module 8 (no test file, no hidden directory)", counts)
	}
	ceilings, err := readLocBudget(filepath.Join(root, locBudgetFile))
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(locProblems(counts, ceilings), "\n")
	for _, want := range []string{"big: 4 non-test lines, ceiling 3", "new: 1 non-test lines and no row", "gone: row in"} {
		if !strings.Contains(got, want) {
			t.Errorf("problems %q do not name %q", got, want)
		}
	}
	if strings.Contains(got, "module") || strings.Contains(got, ".:") {
		t.Errorf("problems %q name a row within its ceiling", got)
	}
}
