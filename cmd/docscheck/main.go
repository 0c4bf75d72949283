// Command docscheck enforces the repository's documentation
// invariants, so CI can fail on documentation rot the way it fails on
// broken code:
//
//   - every intra-repo markdown link (and image) resolves to an
//     existing file or directory;
//   - every Go package — root, internal/..., cmd/..., examples/... —
//     carries a package comment ("// Package xxx ..." or a command
//     comment on package main);
//   - in the contract packages (see docDepthDirs), every exported
//     top-level identifier — funcs, methods, types, consts, vars —
//     carries a doc comment. Those packages are the performance and
//     streaming surface documented by docs/PERFORMANCE.md and
//     docs/STREAMING.md, and an undocumented export there is
//     documentation rot;
//   - every experiment in experiments.Registry() has its own section
//     heading in docs/EXPERIMENTS.md, so a runner cannot land without
//     its documentation;
//   - every flag cmd/damaris-bench defines is mentioned in README.md,
//     and every -flag on a damaris-bench command line in README.md,
//     docs/*.md and the Makefile is one it defines, so the CLI reference
//     and its examples cannot drift from the binary either way;
//   - every docs/*.md file is reachable from README.md by following
//     intra-repo markdown links, so a document cannot exist without a
//     path readers can actually find;
//   - every Makefile `smoke-*` target names a registered experiment id
//     or is smoke-paper, the whole registry at paper scale, so the CI
//     smoke matrix cannot drift behind the registry;
//   - every package under internal/ is imported by a non-test Go file
//     outside examples/ and outside itself, so a package that only an
//     example or its own tests reach cannot linger.
//
// Usage:
//
//	docscheck            # check the current directory tree
//	docscheck -root dir  # check another tree
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"repro/internal/experiments"
)

// skipDirs are trees that hold no sources or docs of ours.
var skipDirs = map[string]bool{".git": true, "out": true, "testdata": true}

func main() {
	root := flag.String("root", ".", "repository root to check")
	flag.Parse()
	var problems []string
	problems = append(problems, checkMarkdownLinks(*root)...)
	problems = append(problems, checkPackageComments(*root)...)
	problems = append(problems, checkExportedDocs(*root)...)
	problems = append(problems, checkExperimentDocs(*root)...)
	problems = append(problems, checkBenchFlags(*root)...)
	problems = append(problems, checkDocsReachable(*root)...)
	problems = append(problems, checkSmokeTargets(*root)...)
	problems = append(problems, checkInternalImported(*root)...)
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, p)
		}
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("docscheck: ok")
}

// mdLink matches inline markdown links and images: [text](target) and
// ![alt](target), leaving reference-style definitions alone.
var mdLink = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)

// checkMarkdownLinks resolves every relative link in every .md file.
func checkMarkdownLinks(root string) []string {
	var problems []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if skipDirs[d.Name()] {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".md") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		// Fenced code blocks show link-like syntax in examples; skip them.
		for _, m := range mdLink.FindAllStringSubmatch(stripCodeFences(string(data)), -1) {
			target := m[1]
			if u, err := url.Parse(target); err == nil && u.Scheme != "" {
				continue // external: http, https, mailto, ...
			}
			target, _, _ = strings.Cut(target, "#")
			if target == "" {
				continue // pure fragment: same-file anchor
			}
			resolved := filepath.Join(filepath.Dir(path), filepath.FromSlash(target))
			if _, err := os.Stat(resolved); err != nil {
				problems = append(problems,
					fmt.Sprintf("%s: broken link %q (%s does not exist)", path, m[1], resolved))
			}
		}
		return nil
	})
	if err != nil {
		problems = append(problems, fmt.Sprintf("walking %s: %v", root, err))
	}
	return problems
}

// stripCodeFences blanks ``` fenced blocks so example snippets inside
// them are not treated as live links.
func stripCodeFences(s string) string {
	var out strings.Builder
	fenced := false
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			out.WriteString("\n")
			continue
		}
		if fenced {
			out.WriteString("\n")
			continue
		}
		out.WriteString(line)
		out.WriteString("\n")
	}
	return out.String()
}

// docDepthDirs are the packages held to the stricter standard: every
// exported top-level identifier must carry a doc comment. These are
// the hot-path packages reworked by the performance pass (see
// docs/PERFORMANCE.md) plus the streaming/in-situ surface documented
// by docs/STREAMING.md — their exported surface is the contract the
// benchmarks, the pooling rules and the subscriber API hang off.
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
		pkgs, err := parser.ParseDir(fset, path, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			problems = append(problems, fmt.Sprintf("parsing %s: %v", path, err))
			continue
		}
		for _, pkg := range pkgs {
			for fname, f := range pkg.Files {
				for _, decl := range f.Decls {
					for _, p := range undocumentedExports(decl) {
						pos := fset.Position(p.pos)
						problems = append(problems, fmt.Sprintf(
							"%s:%d: exported %s %s has no doc comment",
							fname, pos.Line, p.kind, p.name))
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
		found := false
		for _, h := range headings {
			if re.MatchString(h) {
				found = true
				break
			}
		}
		if !found {
			problems = append(problems, fmt.Sprintf(
				"%s: no section heading for experiment %s (%s)", path, id, e.Title))
		}
	}
	return problems
}

// checkBenchFlags requires every flag cmd/damaris-bench defines to be
// mentioned in README.md as `-name`, keeping the CLI reference in sync
// with the binary. Flags are collected from the AST — any flag.Xxx
// ("name", ...) call — so a new flag cannot land undocumented.
func checkBenchFlags(root string) []string {
	src := filepath.Join(root, "cmd", "damaris-bench", "main.go")
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, src, nil, 0)
	if err != nil {
		return []string{fmt.Sprintf("parsing %s: %v", src, err)}
	}
	var flags []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); !ok || id.Name != "flag" {
			return true
		}
		if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			flags = append(flags, strings.Trim(lit.Value, `"`))
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
	return append(problems, checkBenchExamples(root, flags)...)
}

// cliFlag matches a -flag token on a command line.
var cliFlag = regexp.MustCompile(`(?:^|\s)-([a-z][a-z0-9-]*)`)

// checkBenchExamples requires every -flag on a damaris-bench command
// line in README.md, docs/*.md and the Makefile to be one of flags, the
// ones the command defines, so a deleted flag cannot linger in an
// example. A command line runs from "damaris-bench" to the end of the
// line, a comment, a code span, a table cell or a chained command.
func checkBenchExamples(root string, flags []string) []string {
	defined := map[string]bool{}
	for _, f := range flags {
		defined[f] = true
	}
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
			for _, cmd := range strings.Split(line, "damaris-bench")[1:] {
				cmd = cmd[:strings.IndexAny(cmd+"#", "#`|;&")]
				for _, m := range cliFlag.FindAllStringSubmatch(cmd, -1) {
					if !defined[m[1]] {
						problems = append(problems, fmt.Sprintf(
							"%s:%d: damaris-bench defines no flag -%s", path, i+1, m[1]))
					}
				}
			}
		}
	}
	return problems
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
	queue := []string{start}
	for len(queue) > 0 {
		path := queue[0]
		queue = queue[1:]
		abs, err := filepath.Abs(path)
		if err != nil || visited[abs] {
			continue
		}
		visited[abs] = true
		data, err := os.ReadFile(path)
		if err != nil {
			continue // broken links are checkMarkdownLinks' problem
		}
		for _, m := range mdLink.FindAllStringSubmatch(stripCodeFences(string(data)), -1) {
			target := m[1]
			if u, err := url.Parse(target); err == nil && u.Scheme != "" {
				continue
			}
			target, _, _ = strings.Cut(target, "#")
			if !strings.HasSuffix(target, ".md") {
				continue
			}
			queue = append(queue, filepath.Join(filepath.Dir(path), filepath.FromSlash(target)))
		}
	}
	var problems []string
	docs, err := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	if err != nil {
		return []string{fmt.Sprintf("globbing docs: %v", err)}
	}
	for _, doc := range docs {
		abs, err := filepath.Abs(doc)
		if err != nil {
			continue
		}
		if !visited[abs] {
			problems = append(problems, fmt.Sprintf(
				"%s: not reachable from README.md via markdown links", doc))
		}
	}
	return problems
}

// smokeTarget matches Makefile smoke-* rule definitions.
var smokeTarget = regexp.MustCompile(`(?m)^smoke-([a-z0-9-]+):`)

// checkSmokeTargets requires every Makefile smoke-* target to name a
// registered experiment id, so a smoke rule cannot outlive — or
// precede — its experiment. smoke-paper, which runs every experiment,
// is the one exception.
func checkSmokeTargets(root string) []string {
	path := filepath.Join(root, "Makefile")
	data, err := os.ReadFile(path)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v (required by the smoke-target check)", path, err)}
	}
	registered := map[string]bool{"paper": true}
	for _, e := range experiments.Registry() {
		registered[e.ID] = true
	}
	var problems []string
	for _, m := range smokeTarget.FindAllStringSubmatch(string(data), -1) {
		if registered[m[1]] {
			continue
		}
		problems = append(problems, fmt.Sprintf(
			"%s: smoke target %q names no registered experiment id", path, m[0][:len(m[0])-1]))
	}
	return problems
}

// checkPackageComments requires a package comment in every directory
// holding non-test Go files.
func checkPackageComments(root string) []string {
	var problems []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if skipDirs[d.Name()] {
			return filepath.SkipDir
		}
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, path, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			return fmt.Errorf("parsing %s: %w", path, err)
		}
		for name, pkg := range pkgs {
			if strings.HasSuffix(name, "_test") {
				continue
			}
			documented := false
			for _, f := range pkg.Files {
				if f.Doc != nil {
					documented = true
					break
				}
			}
			if !documented {
				problems = append(problems,
					fmt.Sprintf("%s: package %s has no package comment", path, name))
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
// imported (blank imports count) by a non-test Go file outside
// examples/ and outside the package itself.
func checkInternalImported(root string) []string {
	pkgs, imported := map[string]bool{}, map[string]bool{}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		rel, _ := filepath.Rel(root, p)
		switch {
		case err != nil:
			return err
		case d.IsDir() && (skipDirs[d.Name()] || rel == "examples"):
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
			problems = append(problems, pkg+": imported only by examples/ or its own files; fold or delete it")
		}
	}
	if err != nil {
		problems = append(problems, fmt.Sprintf("walking %s: %v", root, err))
	}
	sort.Strings(problems)
	return problems
}
