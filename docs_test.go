package damaris

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// docRules are the repository's documentation invariants, so that
// documentation rot fails the test suite the way broken code does. Each
// rule takes a repository root and returns one line per problem.
var docRules = []struct {
	name  string
	check func(root string) []string
}{
	{"links", checkMarkdownLinks},
	{"package-comments", checkPackageComments},
	{"exported-docs", checkExportedDocs},
	{"experiment-docs", checkExperimentDocs},
	{"bench-flags", checkBenchFlags},
	{"docs-reachable", checkDocsReachable},
	{"smoke-targets", checkSmokeTargets},
	{"internal-imported", checkInternalImported},
	{"go-run", checkGoRun},
}

func TestDocs(t *testing.T) {
	for _, r := range docRules {
		t.Run(r.name, func(t *testing.T) {
			for _, p := range r.check(".") {
				t.Error(p)
			}
		})
	}
}

// TestDocsRulesReject shows that every rule can fail: each case builds
// a tree with one defect and requires the named rule to report it.
func TestDocsRulesReject(t *testing.T) {
	const benchMain = "package main\n\nimport \"flag\"\n\nvar quick = flag.Bool(\"quick\", false, \"\")\n"
	cases := []struct {
		check  func(root string) []string
		defect string
		files  map[string]string
		want   string
	}{
		{checkMarkdownLinks, "dangling link", map[string]string{"README.md": "see [x](gone.md)\n"}, "broken link"},
		{checkPackageComments, "no package comment", map[string]string{"a/a.go": "package a\n"}, "package a has no package comment"},
		{checkExportedDocs, "undocumented export", map[string]string{
			"internal/des/des.go": "// Package des is a fixture.\npackage des\n\nfunc Run() {}\n"}, "exported function Run has no doc comment"},
		{checkExperimentDocs, "missing experiment", map[string]string{"docs/EXPERIMENTS.md": "## E1\n"}, "no section heading for experiment E2"},
		{checkBenchFlags, "undocumented flag", map[string]string{
			"cmd/damaris-bench/main.go": benchMain, "README.md": "no flags\n"}, "flag -quick is not documented"},
		{checkBenchFlags, "undefined flag", map[string]string{
			"cmd/damaris-bench/main.go": benchMain, "README.md": "`damaris-bench -quick -gone`\n"}, "defines no flag -gone"},
		{checkDocsReachable, "orphan document", map[string]string{"README.md": "# r\n", "docs/x.md": "# x\n"}, "x.md: not reachable"},
		{checkSmokeTargets, "stray smoke target", map[string]string{"Makefile": "smoke-zz:\n\ttrue\n"}, `"smoke-zz" names no registered`},
		{checkInternalImported, "unused package", map[string]string{
			"internal/lonely/l.go": "// Package lonely is a fixture.\npackage lonely\n"}, "internal/lonely: imported only by"},
		{checkGoRun, "stale run command", map[string]string{"README.md": "```\ngo run ./examples/quickstart\n```\n"}, "go run ./examples/quickstart"},
	}
	for _, tc := range cases {
		t.Run(tc.defect, func(t *testing.T) {
			root := t.TempDir()
			for name, body := range tc.files {
				path := filepath.Join(root, name)
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			problems := tc.check(root)
			if !slices.ContainsFunc(problems, func(p string) bool { return strings.Contains(p, tc.want) }) {
				t.Errorf("got %q, want a problem containing %q", problems, tc.want)
			}
		})
	}
}

// skipDirs are trees that hold no sources or docs of ours.
var skipDirs = map[string]bool{".git": true, ".bench_build": true, "out": true, "testdata": true}

// nonTest selects the Go files a package is built from.
func nonTest(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }

// mdLink matches inline markdown links and images: [text](target) and
// ![alt](target), leaving reference-style definitions alone.
var mdLink = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)

// localLinks returns the intra-repo link targets of a markdown text.
// Fenced code blocks are blanked first: link-like syntax there is an
// example, not a link.
func localLinks(md string) []string {
	lines := strings.Split(md, "\n")
	fenced := false
	for i, line := range lines {
		fence := strings.HasPrefix(strings.TrimSpace(line), "```")
		fenced = fenced != fence
		if fence || fenced {
			lines[i] = ""
		}
	}
	var out []string
	for _, m := range mdLink.FindAllStringSubmatch(strings.Join(lines, "\n"), -1) {
		if u, err := url.Parse(m[1]); err != nil || u.Scheme == "" { // not http, https, mailto, ...
			out = append(out, m[1])
		}
	}
	return out
}

// checkMarkdownLinks requires every intra-repo link (and image) in
// every .md file to resolve to an existing file or directory.
func checkMarkdownLinks(root string) []string {
	var problems []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && skipDirs[d.Name()]:
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(d.Name(), ".md"):
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, link := range localLinks(string(data)) {
			target, _, _ := strings.Cut(link, "#")
			if target == "" {
				continue // same-file anchor
			}
			resolved := filepath.Join(filepath.Dir(path), filepath.FromSlash(target))
			if _, err := os.Stat(resolved); err != nil {
				problems = append(problems,
					fmt.Sprintf("%s: broken link %q (%s does not exist)", path, link, resolved))
			}
		}
		return nil
	})
	if err != nil {
		problems = append(problems, fmt.Sprintf("walking %s: %v", root, err))
	}
	return problems
}

// docDepthDirs are the packages held to the stricter standard: every
// exported top-level identifier must carry a doc comment. These are
// the hot-path packages of docs/PERFORMANCE.md plus the streaming and
// in-situ surface of docs/STREAMING.md — their exported surface is the
// contract the benchmarks, the pooling rules and the subscriber API
// hang off.
var docDepthDirs = []string{
	"internal/des",
	"internal/core",
	"internal/buf",
	"internal/storage",
	"internal/cluster",
	"internal/insitu",
	"internal/visitsim",
}

// checkExportedDocs flags exported top-level declarations without doc
// comments in the docDepthDirs packages. A const/var group documents
// all its names with one group comment, matching godoc's rendering.
func checkExportedDocs(root string) []string {
	var problems []string
	for _, dir := range docDepthDirs {
		path := filepath.Join(root, dir)
		if _, err := os.Stat(path); err != nil {
			continue // package not present in this tree
		}
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, path, nonTest, parser.ParseComments)
		if err != nil {
			problems = append(problems, fmt.Sprintf("parsing %s: %v", path, err))
			continue
		}
		for _, pkg := range pkgs {
			for fname, f := range pkg.Files {
				for _, decl := range f.Decls {
					for _, p := range undocumentedExports(decl) {
						problems = append(problems, fmt.Sprintf("%s:%d: exported %s %s has no doc comment",
							fname, fset.Position(p.pos).Line, p.kind, p.name))
					}
				}
			}
		}
	}
	return problems
}

// export is one undocumented exported identifier found in a decl.
type export struct {
	kind string
	name string
	pos  token.Pos
}

// undocumentedExports lists the exported names a declaration introduces
// without documentation: funcs and methods missing a doc comment, and
// specs in type/const/var groups covered by neither a spec comment nor
// the group comment.
func undocumentedExports(decl ast.Decl) []export {
	var out []export
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Name.IsExported() && d.Doc == nil {
			kind := "function"
			if d.Recv != nil {
				// Methods on unexported receivers never surface in
				// godoc; only exported receivers are held to the rule.
				if !receiverExported(d.Recv) {
					return nil
				}
				kind = "method"
			}
			out = append(out, export{kind: kind, name: d.Name.Name, pos: d.Pos()})
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && s.Doc == nil && d.Doc == nil {
					out = append(out, export{kind: "type", name: s.Name.Name, pos: s.Pos()})
				}
			case *ast.ValueSpec:
				if s.Doc != nil || d.Doc != nil {
					continue
				}
				for _, n := range s.Names {
					if n.IsExported() {
						out = append(out, export{kind: d.Tok.String(), name: n.Name, pos: n.Pos()})
					}
				}
			}
		}
	}
	return out
}

// receiverExported reports whether a method's receiver names an
// exported type (after stripping pointers and type parameters).
func receiverExported(recv *ast.FieldList) bool {
	if recv == nil || len(recv.List) == 0 {
		return false
	}
	t := recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return false
		}
	}
}

// checkExperimentDocs requires a docs/EXPERIMENTS.md section heading
// for every experiment in experiments.Registry(): a `##` heading must
// name the upper-case id as a whole word, so E1 cannot satisfy E10's
// requirement (or vice versa).
func checkExperimentDocs(root string) []string {
	path := filepath.Join(root, "docs", "EXPERIMENTS.md")
	data, err := os.ReadFile(path)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v (required by the experiment registry)", path, err)}
	}
	var headings []string
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "##") {
			headings = append(headings, line)
		}
	}
	var problems []string
	for _, e := range experiments.Registry() {
		id := strings.ToUpper(e.ID)
		re := regexp.MustCompile(`\b` + regexp.QuoteMeta(id) + `\b`)
		if !slices.ContainsFunc(headings, re.MatchString) {
			problems = append(problems, fmt.Sprintf(
				"%s: no section heading for experiment %s (%s)", path, id, e.Title))
		}
	}
	return problems
}

// checkBenchFlags requires every flag cmd/damaris-bench defines to be
// mentioned in README.md as `-name`, and every -flag on a damaris-bench
// command line in README.md, docs/*.md and the Makefile to be one it
// defines, so the CLI reference and its examples cannot drift from the
// binary either way. Flags are collected from the AST — any
// flag.Xxx("name", ...) call.
func checkBenchFlags(root string) []string {
	src := filepath.Join(root, "cmd", "damaris-bench", "main.go")
	f, err := parser.ParseFile(token.NewFileSet(), src, nil, 0)
	if err != nil {
		return []string{fmt.Sprintf("parsing %s: %v", src, err)}
	}
	defined := map[string]bool{}
	var flags []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			id, isIdent := sel.X.(*ast.Ident)
			lit, isLit := call.Args[0].(*ast.BasicLit)
			if isIdent && id.Name == "flag" && isLit && lit.Kind == token.STRING {
				name := strings.Trim(lit.Value, `"`)
				flags = append(flags, name)
				defined[name] = true
			}
		}
		return true
	})
	readmePath := filepath.Join(root, "README.md")
	readme, err := os.ReadFile(readmePath)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v (required by the bench flag check)", readmePath, err)}
	}
	var problems []string
	for _, name := range flags {
		if !strings.Contains(string(readme), "-"+name) {
			problems = append(problems, fmt.Sprintf(
				"%s: damaris-bench flag -%s is not documented", readmePath, name))
		}
	}
	// A command line runs from "damaris-bench" to the end of the line, a
	// comment, a code span, a table cell or a chained command.
	return append(problems, checkCommandLines(root, func(line string) []string {
		var bad []string
		for _, cmd := range strings.Split(line, "damaris-bench")[1:] {
			cmd = cmd[:strings.IndexAny(cmd+"#", "#`|;&")]
			for _, m := range cliFlag.FindAllStringSubmatch(cmd, -1) {
				if !defined[m[1]] {
					bad = append(bad, "damaris-bench defines no flag -"+m[1])
				}
			}
		}
		return bad
	})...)
}

// cliFlag matches a -flag token on a command line.
var cliFlag = regexp.MustCompile(`(?:^|\s)-([a-z][a-z0-9-]*)`)

// checkCommandLines runs check over every line of README.md, docs/*.md
// and the Makefile — where command lines are documented, fenced code
// included — and returns its problems as path:line: problem.
func checkCommandLines(root string, check func(line string) []string) []string {
	files, _ := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	files = append(files, filepath.Join(root, "README.md"), filepath.Join(root, "Makefile"))
	var problems []string
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", path, err))
			continue
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, p := range check(line) {
				problems = append(problems, fmt.Sprintf("%s:%d: %s", path, i+1, p))
			}
		}
	}
	return problems
}

// goRun matches `go run ./dir` and the Makefile's `$(GO) run ./dir`.
var goRun = regexp.MustCompile(`(?:\bgo|\$\(GO\)) run(?: -\S+)* (\./[\w./-]*)`)

// checkGoRun requires every `go run ./dir` in README.md, docs/*.md and
// the Makefile to name a directory holding a main package, so a run
// command cannot outlive the program it runs.
func checkGoRun(root string) []string {
	return checkCommandLines(root, func(line string) []string {
		var bad []string
		for _, m := range goRun.FindAllStringSubmatch(line, -1) {
			pkgs, err := parser.ParseDir(token.NewFileSet(), filepath.Join(root, m[1]), nonTest, parser.PackageClauseOnly)
			if err != nil || pkgs["main"] == nil {
				bad = append(bad, fmt.Sprintf("`go run %s` names no directory holding a main package", m[1]))
			}
		}
		return bad
	})
}

// checkDocsReachable walks the markdown link graph from README.md and
// requires every docs/*.md file to be reachable: a document nobody
// links to is a document nobody reads.
func checkDocsReachable(root string) []string {
	start := filepath.Join(root, "README.md")
	if _, err := os.Stat(start); err != nil {
		return []string{fmt.Sprintf("%s: %v (required by the docs reachability check)", start, err)}
	}
	visited := map[string]bool{}
	for queue := []string{start}; len(queue) > 0; queue = queue[1:] {
		abs, err := filepath.Abs(queue[0])
		if err != nil || visited[abs] {
			continue
		}
		visited[abs] = true
		data, err := os.ReadFile(abs)
		if err != nil {
			continue // broken links are checkMarkdownLinks' problem
		}
		for _, link := range localLinks(string(data)) {
			if target, _, _ := strings.Cut(link, "#"); strings.HasSuffix(target, ".md") {
				queue = append(queue, filepath.Join(filepath.Dir(abs), filepath.FromSlash(target)))
			}
		}
	}
	var problems []string
	docs, _ := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	for _, doc := range docs {
		if abs, err := filepath.Abs(doc); err == nil && !visited[abs] {
			problems = append(problems, doc+": not reachable from README.md via markdown links")
		}
	}
	return problems
}

// smokeTarget matches Makefile smoke-* rule definitions.
var smokeTarget = regexp.MustCompile(`(?m)^smoke-([a-z0-9-]+):`)

// checkSmokeTargets requires every Makefile smoke-* target to name a
// registered experiment id, so a smoke rule cannot outlive — or
// precede — its experiment.
func checkSmokeTargets(root string) []string {
	path := filepath.Join(root, "Makefile")
	data, err := os.ReadFile(path)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v (required by the smoke-target check)", path, err)}
	}
	registered := map[string]bool{}
	for _, e := range experiments.Registry() {
		registered[e.ID] = true
	}
	var problems []string
	for _, m := range smokeTarget.FindAllStringSubmatch(string(data), -1) {
		if !registered[m[1]] {
			problems = append(problems, fmt.Sprintf(
				"%s: smoke target %q names no registered experiment id", path, "smoke-"+m[1]))
		}
	}
	return problems
}

// checkPackageComments requires a package comment in every directory
// holding non-test Go files.
func checkPackageComments(root string) []string {
	var problems []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case !d.IsDir():
			return nil
		case skipDirs[d.Name()]:
			return filepath.SkipDir
		}
		pkgs, err := parser.ParseDir(token.NewFileSet(), path, nonTest, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			return fmt.Errorf("parsing %s: %w", path, err)
		}
		for name, pkg := range pkgs {
			documented := false
			for _, f := range pkg.Files {
				documented = documented || f.Doc != nil
			}
			if !documented && !strings.HasSuffix(name, "_test") {
				problems = append(problems, fmt.Sprintf("%s: package %s has no package comment", path, name))
			}
		}
		return nil
	})
	if err != nil {
		problems = append(problems, fmt.Sprintf("walking %s: %v", root, err))
	}
	return problems
}

// checkInternalImported requires every package under internal/ to be
// imported (blank imports count) by a non-test Go file outside the
// package itself, so a package that only its own tests reach cannot
// linger.
func checkInternalImported(root string) []string {
	pkgs, imported := map[string]bool{}, map[string]bool{}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		rel, _ := filepath.Rel(root, p)
		switch {
		case err != nil:
			return err
		case d.IsDir() && skipDirs[d.Name()]:
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go"):
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(rel))
		pkgs[dir] = true
		f, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if dep, ok := strings.CutPrefix(strings.Trim(imp.Path.Value, `"`), "repro/"); ok && dep != dir {
				imported[dep] = true
			}
		}
		return nil
	})
	var problems []string
	for pkg := range pkgs {
		if strings.HasPrefix(pkg, "internal/") && !imported[pkg] {
			problems = append(problems, pkg+": imported only by its own files; fold or delete it")
		}
	}
	if err != nil {
		problems = append(problems, fmt.Sprintf("walking %s: %v", root, err))
	}
	sort.Strings(problems)
	return problems
}
