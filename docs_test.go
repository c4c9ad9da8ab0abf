package sparqlopt_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"sparqlopt/internal/resilience/faultinject"
)

// TestDocsNameOnlyWhatExists keeps the prose from outliving the code:
// every `-experiment <name>`, BENCH_*.json artifact and root With…
// option that README.md, DESIGN.md, EXPERIMENTS.md or benchrunner's
// usage comment names must exist in the tree — the experiment in
// benchrunner's table, the artifact checked in at the repo root, the
// option declared in the root package. The usage comment must also
// list every experiment the table holds. sparqld and sparqlopt are held
// the same way: every flag a command's usage comment or a `sparqld
// -flag …` command line in the docs names must be defined, and every
// defined flag listed. README.md must name every root With… option and
// every field of NodeFailoverConfig, and no field it lacks. DESIGN.md's
// fault-site table must hold exactly the sites faultinject registers.
// The -partition usage lines of sparqld and sparqlopt, and
// PartitionMethod's doc, list exactly the names of partition.ByName's
// table.
func TestDocsNameOnlyWhatExists(t *testing.T) {
	const runner = "cmd/benchrunner/main.go"
	fset := token.NewFileSet()
	main, err := parser.ParseFile(fset, runner, nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	experiments := map[string]bool{"all": true}
	ast.Inspect(main, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok || len(vs.Names) != 1 || vs.Names[0].Name != "experiments" || len(vs.Values) != 1 {
			return true
		}
		for _, el := range vs.Values[0].(*ast.CompositeLit).Elts {
			name, err := strconv.Unquote(el.(*ast.KeyValueExpr).Key.(*ast.BasicLit).Value)
			if err != nil {
				t.Fatal(err)
			}
			experiments[name] = true
		}
		return false
	})
	if len(experiments) < 2 {
		t.Fatalf("found no experiments table in %s", runner)
	}

	options := map[string]bool{}
	fields := map[string]map[string]bool{"NodeFailoverConfig": {}}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "With") {
				options[fd.Name.Name] = true
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || fields[ts.Name.Name] == nil {
				return true
			}
			for _, field := range ts.Type.(*ast.StructType).Fields.List {
				for _, name := range field.Names {
					fields[ts.Name.Name][name.Name] = true
				}
			}
			return false
		})
	}
	if len(options) == 0 {
		t.Fatal("found no With… options in the root package")
	}
	for typ, fs := range fields {
		if len(fs) == 0 {
			t.Fatalf("found no fields of %s in the root package", typ)
		}
	}

	var (
		// "-experiment x" or "-experiment a|b|c"; the leading class keeps
		// "per-experiment index" out.
		experimentRE = regexp.MustCompile(`(?:^|[^\w-])-experiment[ =]([a-z0-9|]+)`)
		artifactRE   = regexp.MustCompile(`BENCH_\w+\.json`)
		// A With… name, bare or qualified; only bare and sparqlopt.-
		// qualified ones are claims about the root package.
		optionRE = regexp.MustCompile(`(\w+\.)?\b(With[A-Z]\w*)`)
	)
	usage := main.Doc.Text()
	docs := map[string]string{runner: usage}
	for _, name := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		docs[name] = string(data)
	}
	for _, cmd := range []string{"sparqld", "sparqlopt"} {
		checkCommandFlags(t, fset, cmd, docs)
	}
	checkFaultSiteTable(t, docs["DESIGN.md"])
	checkMethodNames(t, fset)
	checkReadmeOptions(t, docs["README.md"], options, fields)
	for name, text := range docs {
		for _, line := range strings.Split(text, "\n") {
			for _, m := range experimentRE.FindAllStringSubmatch(line, -1) {
				for _, exp := range strings.Split(m[1], "|") {
					if !experiments[exp] {
						t.Errorf("%s names -experiment %s, which benchrunner does not have", name, exp)
					}
				}
			}
			for _, artifact := range artifactRE.FindAllString(line, -1) {
				if _, err := os.Stat(artifact); err != nil {
					t.Errorf("%s names %s, which is not checked in", name, artifact)
				}
			}
			for _, m := range optionRE.FindAllStringSubmatch(line, -1) {
				if (m[1] == "" || m[1] == "sparqlopt.") && !options[m[2]] {
					t.Errorf("%s names option %s, which the root package does not declare", name, m[2])
				}
			}
		}
	}

	// The usage comment lists experiments as "a | b | c" rows.
	listed := map[string]bool{}
	for _, line := range strings.Split(usage, "\n") {
		if !strings.Contains(line, " | ") {
			continue
		}
		for _, exp := range strings.Split(line, "|") {
			if exp = strings.TrimSpace(exp); exp != "" {
				listed[exp] = true
			}
		}
	}
	for exp := range listed {
		if !experiments[exp] {
			t.Errorf("%s usage lists experiment %q, which benchrunner does not have", runner, exp)
		}
	}
	for exp := range experiments {
		if !listed[exp] {
			t.Errorf("%s usage does not list experiment %q", runner, exp)
		}
	}
}

// checkCommandFlags is the command-line half of
// TestDocsNameOnlyWhatExists, for the command cmd/<cmd>.
func checkCommandFlags(t *testing.T, fset *token.FileSet, cmd string, docs map[string]string) {
	path := "cmd/" + cmd + "/main.go"
	main, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	// Defined: the first argument of every flag.<Type>("name", …) call.
	defined := map[string]bool{}
	ast.Inspect(main, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) < 2 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatal(err)
			}
			defined[name] = true
		}
		return true
	})
	if len(defined) == 0 {
		t.Fatalf("found no flag definitions in %s", path)
	}

	// Listed: any -name at the start of a word of the usage comment
	// (its rows and the prose under them alike).
	listed := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?:^|[\s/(])-([a-z][a-z-]*)`).FindAllStringSubmatch(main.Doc.Text(), -1) {
		listed[m[1]] = true
	}
	for name := range listed {
		if !defined[name] {
			t.Errorf("%s usage names -%s, which %s does not define", path, name, cmd)
		}
	}
	for name := range defined {
		if !listed[name] {
			t.Errorf("%s usage does not list -%s", path, name)
		}
	}

	// A command line in the docs: the words after the name, up to the
	// end of the line or of the code span, continuation lines joined.
	cmdRE := regexp.MustCompile(`\b` + cmd + "((?:[ \\t]+[^\\s`]+)+)")
	for name, text := range docs {
		for _, m := range cmdRE.FindAllStringSubmatch(strings.ReplaceAll(text, "\\\n", " "), -1) {
			for _, word := range strings.Fields(m[1]) {
				if len(word) < 2 || word[0] != '-' || word[1] < 'a' || word[1] > 'z' {
					continue
				}
				flagName, _, _ := strings.Cut(strings.TrimRight(word[1:], ".,;:)"), "=")
				if !defined[flagName] {
					t.Errorf("%s names %s -%s, which %s does not define", name, cmd, flagName, cmd)
				}
			}
		}
	}
}

// checkReadmeOptions is the option half of TestDocsNameOnlyWhatExists:
// README.md names every root With… option, and every field of the
// config structs in fields — as Type.Field, or as a key of a Type{…}
// literal — and names no field of theirs that is not declared.
func checkReadmeOptions(t *testing.T, readme string, options map[string]bool, fields map[string]map[string]bool) {
	for o := range options {
		if !regexp.MustCompile(`\b` + o + `\b`).MatchString(readme) {
			t.Errorf("README.md does not name option %s", o)
		}
	}
	named := map[string]bool{}
	for _, m := range regexp.MustCompile(`\b(NodeFailoverConfig)\.([A-Z]\w*)`).FindAllStringSubmatch(readme, -1) {
		named[m[1]+"."+m[2]] = true
	}
	for _, m := range regexp.MustCompile(`\b(NodeFailoverConfig)\{([^}]*)\}`).FindAllStringSubmatch(readme, -1) {
		for _, key := range regexp.MustCompile(`(\w+)\s*:`).FindAllStringSubmatch(m[2], -1) {
			named[m[1]+"."+key[1]] = true
		}
	}
	for typ, fs := range fields {
		for f := range fs {
			if !named[typ+"."+f] {
				t.Errorf("README.md does not name %s.%s", typ, f)
			}
		}
	}
	for n := range named {
		if typ, f, _ := strings.Cut(n, "."); !fields[typ][f] {
			t.Errorf("README.md names %s, which the root package does not declare", n)
		}
	}
}

// checkFaultSiteTable is the fault-site half of
// TestDocsNameOnlyWhatExists: the rows of the table under DESIGN.md's
// "Fault-site registry" paragraph name exactly the sites of
// faultinject.Sites().
func checkFaultSiteTable(t *testing.T, design string) {
	_, table, ok := strings.Cut(design, "**Fault-site registry**")
	if !ok {
		t.Fatal("DESIGN.md has no fault-site registry table")
	}
	registered := map[string]bool{}
	for _, info := range faultinject.Sites() {
		registered[string(info.Site)] = true
	}
	rowRE := regexp.MustCompile("^\\| `([^`]+)` \\|")
	listed := map[string]bool{}
	inTable := false
	for _, line := range strings.Split(table, "\n") {
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break
			}
			continue
		}
		inTable = true
		if m := rowRE.FindStringSubmatch(line); m != nil {
			listed[m[1]] = true
			if !registered[m[1]] {
				t.Errorf("DESIGN.md's fault-site table lists %s, which faultinject does not register", m[1])
			}
		}
	}
	for site := range registered {
		if !listed[site] {
			t.Errorf("DESIGN.md's fault-site table does not list %s", site)
		}
	}
}

// checkMethodNames is the partitioning-method half of
// TestDocsNameOnlyWhatExists: the names after -partition in the usage
// comments of sparqld and sparqlopt, and the quoted names in
// PartitionMethod's doc, are exactly the keys of partition.ByName's
// table (the byName map literal).
func checkMethodNames(t *testing.T, fset *token.FileSet) {
	const table = "internal/partition/methods.go"
	f, err := parser.ParseFile(fset, table, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok || len(vs.Names) != 1 || vs.Names[0].Name != "byName" || len(vs.Values) != 1 {
			return true
		}
		for _, el := range vs.Values[0].(*ast.CompositeLit).Elts {
			name, err := strconv.Unquote(el.(*ast.KeyValueExpr).Key.(*ast.BasicLit).Value)
			if err != nil {
				t.Fatal(err)
			}
			names[name] = true
		}
		return false
	})
	if len(names) == 0 {
		t.Fatalf("found no byName table in %s", table)
	}
	same := func(where string, listed []string) {
		got := map[string]bool{}
		for _, name := range listed {
			got[name] = true
			if !names[name] {
				t.Errorf("%s names partitioning method %q, which ByName does not have", where, name)
			}
		}
		for name := range names {
			if !got[name] {
				t.Errorf("%s does not name partitioning method %q", where, name)
			}
		}
	}
	for _, cmd := range []string{"sparqld", "sparqlopt"} {
		path := "cmd/" + cmd + "/main.go"
		main, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		m := regexp.MustCompile(`(?m)^\s*-partition\s+([^(\n]*)`).FindStringSubmatch(main.Doc.Text())
		if m == nil {
			t.Errorf("%s usage has no -partition line", path)
			continue
		}
		var listed []string
		for _, name := range strings.Split(m[1], "|") {
			listed = append(listed, strings.TrimSpace(name))
		}
		same(path+"'s -partition usage", listed)
	}
	root, err := parser.ParseFile(fset, "sparqlopt.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range root.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "PartitionMethod" {
			var listed []string
			for _, m := range regexp.MustCompile(`"([^"]+)"`).FindAllStringSubmatch(fd.Doc.Text(), -1) {
				listed = append(listed, m[1])
			}
			same("PartitionMethod's doc", listed)
			return
		}
	}
	t.Error("sparqlopt.go declares no PartitionMethod")
}
