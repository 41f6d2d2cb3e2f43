package repro

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/bench"
)

// requiredDocs are the architecture documents doc.go and the packages
// refer to; the repo must never regress to promising them without
// shipping them.
var requiredDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md", "CHANGES.md", "PAPER.md"}

func TestDocsExist(t *testing.T) {
	for _, name := range requiredDocs {
		st, err := os.Stat(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if st.Size() < 200 {
			t.Errorf("%s: suspiciously small (%d bytes)", name, st.Size())
		}
	}
}

// mdLink matches inline markdown links [text](target). Good enough for
// the plain links these docs use (no reference-style links, no titles).
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// TestNoDeadIntraRepoLinks walks every markdown file in the repository
// and checks that relative link targets exist on disk. External links
// and pure fragments are skipped; a fragment on a relative link is
// checked for the file part only.
func TestNoDeadIntraRepoLinks(t *testing.T) {
	var mdFiles []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".md") {
			mdFiles = append(mdFiles, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(mdFiles) < len(requiredDocs) {
		t.Fatalf("found only %d markdown files: %v", len(mdFiles), mdFiles)
	}
	for _, md := range mdFiles {
		data, err := os.ReadFile(md)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(md), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: dead intra-repo link %q (%v)", md, m[1], err)
			}
		}
	}
}

// TestDocGoReferencesResolve keeps the package documentation honest: any
// ALL-CAPS .md file a doc.go mentions must exist at the repo root.
func TestDocGoReferencesResolve(t *testing.T) {
	docRef := regexp.MustCompile(`\b([A-Z][A-Z0-9_]*\.md)\b`)
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range docRef.FindAllStringSubmatch(string(data), -1) {
			if _, statErr := os.Stat(m[1]); statErr != nil {
				t.Errorf("%s references %s, which does not exist at the repo root", path, m[1])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

var (
	// flagDef matches a flag cmd/topkmon defines: fs.IntVar(&o.n, "n", …).
	flagDef = regexp.MustCompile(`fs\.\w+Var\([^,]+, "([\w-]+)"`)
	// topkmonLine matches a topkmon command line — `topkmon …`, `$ topkmon
	// …` or `go run ./cmd/topkmon …` — up to a closing backtick or a shell
	// comment, and captures its arguments (not `go test ./cmd/topkmon …`).
	topkmonLine = regexp.MustCompile("(?:^|[\\s`(]|go run \\./cmd/)topkmon((?: +[^\\s`#]+)*)")
	// docFlag matches one -flag among those arguments.
	docFlag = regexp.MustCompile(`(?:^|\s)--?([A-Za-z][\w-]*)`)
)

// TestDocFlagsExist keeps the documented command lines runnable: every
// -flag on a topkmon command line in README.md, doc.go, cmd/topkmon's
// package comment and the verify skill must be a flag cmd/topkmon defines.
func TestDocFlagsExist(t *testing.T) {
	const mainGo = "cmd/topkmon/main.go"
	src, err := os.ReadFile(mainGo)
	if err != nil {
		t.Fatal(err)
	}
	defined := map[string]bool{}
	for _, m := range flagDef.FindAllStringSubmatch(string(src), -1) {
		defined[m[1]] = true
	}
	if len(defined) < 10 {
		t.Fatalf("found only the flags %v in %s", defined, mainGo)
	}
	f, err := parser.ParseFile(token.NewFileSet(), mainGo, src, parser.PackageClauseOnly|parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	docs := map[string]string{mainGo + "'s package comment": f.Doc.Text()}
	for _, name := range []string{"README.md", "doc.go", ".claude/skills/verify/SKILL.md"} {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		docs[name] = string(data)
	}
	for name, text := range docs {
		lines := 0
		for i, line := range strings.Split(text, "\n") {
			for _, cmd := range topkmonLine.FindAllStringSubmatch(line, -1) {
				lines++
				for _, fl := range docFlag.FindAllStringSubmatch(cmd[1], -1) {
					if !defined[fl[1]] {
						t.Errorf("%s:%d: topkmon -%s, which %s does not define", name, i+1, fl[1], mainGo)
					}
				}
			}
		}
		if lines == 0 {
			t.Errorf("%s: no topkmon command line found", name)
		}
	}
}

var (
	// benchDef matches a benchmark a _test.go file defines.
	benchDef = regexp.MustCompile(`(?m)^func (Benchmark\w*)\(`)
	// docBench matches a benchmark a document names; a trailing * makes it
	// a family (BenchmarkE*), which names no one function.
	docBench = regexp.MustCompile(`Benchmark[A-Z0-9_]\w*\*?`)
	// benchFlag matches a go test -bench flag's pattern, quoted or bare.
	benchFlag = regexp.MustCompile(`-bench[= ]+('[^']*'|"[^"]*"|[^\s'"]+)`)
	// benchName is a pattern alternative that is one benchmark's name.
	benchName = regexp.MustCompile(`^Benchmark[A-Z0-9_]\w*$`)
)

// TestDocBenchmarksExist keeps the documented benchmarks runnable: every
// BenchmarkX that README.md, DESIGN.md, EXPERIMENTS.md or doc.go names,
// and every alternative of a -bench pattern in the CI workflow, must be a
// func BenchmarkX in some _test.go — a pattern naming a deleted benchmark
// silently runs nothing.
func TestDocBenchmarksExist(t *testing.T) {
	defined := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range benchDef.FindAllStringSubmatch(string(data), -1) {
			defined[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	named := 0
	check := func(where, name string) {
		named++
		if !defined[name] {
			t.Errorf("%s names %s, which no _test.go defines", where, name)
		}
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "doc.go"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, name := range docBench.FindAllString(line, -1) {
				if !strings.HasSuffix(name, "*") {
					check(fmt.Sprintf("%s:%d", doc, i+1), name)
				}
			}
		}
	}
	data, err := os.ReadFile(ciWorkflow)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(data), "\n") {
		for _, m := range benchFlag.FindAllStringSubmatch(line, -1) {
			for _, alt := range strings.Split(strings.Trim(m[1], `'"`), "|") {
				if name, _, _ := strings.Cut(alt, "/"); benchName.MatchString(name) {
					check(fmt.Sprintf("%s:%d", ciWorkflow, i+1), name)
				}
			}
		}
	}
	if named == 0 {
		t.Fatal("no benchmark named in the documents or the CI workflow")
	}
}

// ciWorkflow is the CI workflow TestDocBenchmarksExist and
// TestCIWorkflowIsPlainYAML read.
const ciWorkflow = ".github/workflows/ci.yml"

var (
	// goTestArg matches one argument of a go test command line: a
	// single-quoted pattern or a bare word.
	goTestArg = regexp.MustCompile(`'[^']*'|\S+`)
	// testDef matches a test or fuzz target a _test.go file defines.
	testDef = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)
)

// TestCIWorkflowIsPlainYAML keeps the CI workflow a file GitHub loads, and
// its test selections real. GitHub refuses a workflow that is not valid
// YAML whole, so none of its steps runs: a plain (unquoted) scalar holding
// ": " starts a mapping, " #" a comment, and a tab is no indentation. So
// outside the block scalars of run: | steps, no line may hold a tab, and no
// unquoted value ": " or " #"; a name is at most 80 characters, a title,
// with what a step checks in a # comment or, for a fuzz smoke, its
// target's doc comment. And every go test command's -fuzz X must name a
// func X the package it lists defines, the one fuzz target of it X matches,
// and each alternative of its -run pattern (but xxx, which runs nothing)
// must begin the name of a Test or Fuzz func of one of its packages: a
// pattern naming a deleted test silently runs nothing.
func TestCIWorkflowIsPlainYAML(t *testing.T) {
	data, err := os.ReadFile(ciWorkflow)
	if err != nil {
		t.Fatal(err)
	}
	block := -1 // the indentation of the key a block scalar belongs to; -1 outside one
	for i, line := range strings.Split(string(data), "\n") {
		where := fmt.Sprintf("%s:%d", ciWorkflow, i+1)
		if strings.ContainsRune(line, '\t') {
			t.Errorf("%s: a tab", where)
		}
		checkGoTest(t, where, line)
		body := strings.TrimLeft(line, " ")
		indent := len(line) - len(body)
		if block >= 0 && (body == "" || indent > block) {
			continue
		}
		block = -1
		body = strings.TrimPrefix(body, "- ")
		if body == "" || strings.HasPrefix(body, "#") {
			continue
		}
		key, val, ok := strings.Cut(body, ":")
		if !ok || val == "" {
			continue
		}
		val = strings.TrimPrefix(val, " ")
		switch {
		case strings.HasPrefix(val, "|") || strings.HasPrefix(val, ">"):
			block = indent
		case strings.ContainsAny(val[:1], `"'[{`):
		case strings.Contains(val, ": ") || strings.Contains(val, " #"):
			t.Errorf("%s: the unquoted value of %s holds \": \" or \" #\", which YAML does not read as text: %q", where, key, val)
		case key == "name" && len([]rune(val)) > 80:
			t.Errorf("%s: a name of %d characters; keep a title to 80 and say the rest in a comment", where, len([]rune(val)))
		}
	}
}

// checkGoTest holds a go test command on a workflow line to the packages
// it lists: see TestCIWorkflowIsPlainYAML.
func checkGoTest(t *testing.T, where, line string) {
	t.Helper()
	_, cmd, ok := strings.Cut(line, "go test ")
	if !ok {
		return
	}
	cmd, _, _ = strings.Cut(cmd, " | ")
	args := goTestArg.FindAllString(cmd, -1)
	var run, fuzz string
	var names []string // the packages' Test and Fuzz funcs
	for j, a := range args {
		switch {
		case a == "-run" && j+1 < len(args):
			run = strings.Trim(args[j+1], "'")
		case a == "-fuzz" && j+1 < len(args):
			fuzz = args[j+1]
		case a == "." || strings.HasPrefix(a, "./") && a != "./...":
			files, err := filepath.Glob(filepath.Join(filepath.Clean(a), "*_test.go"))
			if err != nil || len(files) == 0 {
				t.Errorf("%s: go test lists %s, which has no _test.go file", where, a)
			}
			for _, f := range files {
				src, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range testDef.FindAllStringSubmatch(string(src), -1) {
					names = append(names, m[1])
				}
			}
		}
	}
	if fuzz != "" {
		matched := slices.DeleteFunc(slices.Clone(names), func(name string) bool {
			return !strings.HasPrefix(name, "Fuzz") || !strings.Contains(name, fuzz)
		})
		if !slices.Equal(matched, []string{fuzz}) {
			t.Errorf("%s: -fuzz %s matches %v of the package's fuzz targets, want the one named %s", where, fuzz, matched, fuzz)
		}
	}
	if run == "" || run == "xxx" {
		return
	}
	for _, alt := range strings.Split(run, "|") {
		if !slices.ContainsFunc(names, func(name string) bool { return strings.HasPrefix(name, alt) }) {
			t.Errorf("%s: -run alternative %s begins no Test or Fuzz func of the packages listed", where, alt)
		}
	}
}

// expRef matches an experiment a document names — E7, or a range E1–E17
// or E24..E26, which names every id in it.
var expRef = regexp.MustCompile(`\bE(\d+)(?:(?:–|\.\.)E(\d+))?\b`)

// TestDocExperimentsExist keeps the named experiments findable: every
// E<n> that README.md, DESIGN.md, doc.go or cmd/experiments' package
// comment names must be an experiment bench.ByID knows, or the subject of
// a "## E…" heading in EXPERIMENTS.md (the root benchmarks, E18 and
// E20–E23, are recorded there but run no bench table).
func TestDocExperimentsExist(t *testing.T) {
	data, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	headed := map[int]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		if subject, ok := strings.CutPrefix(line, "## E"); ok {
			subject, _, _ = strings.Cut("E"+subject, " — ")
			eachExp(subject, func(n int) { headed[n] = true })
		}
	}
	if len(headed) == 0 {
		t.Fatal("EXPERIMENTS.md has no \"## E…\" heading")
	}
	const expMain = "cmd/experiments/main.go"
	f, err := parser.ParseFile(token.NewFileSet(), expMain, nil, parser.PackageClauseOnly|parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	docs := map[string]string{expMain + "'s package comment": f.Doc.Text()}
	for _, name := range []string{"README.md", "DESIGN.md", "doc.go"} {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		docs[name] = string(data)
	}
	named := 0
	for name, text := range docs {
		for i, line := range strings.Split(text, "\n") {
			eachExp(line, func(n int) {
				named++
				if _, ok := bench.ByID(fmt.Sprintf("E%d", n)); !ok && !headed[n] {
					t.Errorf("%s:%d names E%d, which neither bench.ByID nor an EXPERIMENTS.md heading knows", name, i+1, n)
				}
			})
		}
	}
	if named == 0 {
		t.Fatal("no experiment named in the documents")
	}
}

// eachExp calls fn with every experiment number text names, ranges
// expanded.
func eachExp(text string, fn func(n int)) {
	for _, m := range expRef.FindAllStringSubmatch(text, -1) {
		lo, _ := strconv.Atoi(m[1])
		hi := lo
		if m[2] != "" {
			hi, _ = strconv.Atoi(m[2])
		}
		for n := lo; n <= hi; n++ {
			fn(n)
		}
	}
}

// TestChangesLinesWrapped keeps CHANGES.md readable in a terminal and a
// diff: no line is over 100 bytes unless it is one token that cannot be
// broken (a long code span or path).
func TestChangesLinesWrapped(t *testing.T) {
	data, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(data), "\n") {
		if len(line) > 100 && len(strings.Fields(line)) > 1 {
			t.Errorf("CHANGES.md:%d is %d bytes; wrap it at 100: %.60s…", i+1, len(line), line)
		}
	}
}

// changesEntry matches the first line of a CHANGES.md entry and captures
// its PR number.
var changesEntry = regexp.MustCompile(`^- PR (\d+):`)

// TestChangesEntryBudget keeps each CHANGES.md entry numbered 31 or later within
// 1.5 KB (1536 bytes, its lines and their newlines): what changed, why,
// how it was checked, and what is next. Longer evidence belongs in
// EXPERIMENTS.md or DESIGN.md. Older entries are left as they were written.
func TestChangesEntryBudget(t *testing.T) {
	const first, budget = 31, 1536
	data, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	pr, size, line := 0, 0, 0
	check := func() {
		if pr >= first && size > budget {
			t.Errorf("CHANGES.md:%d: the PR %d entry is %d bytes, budget %d", line, pr, size, budget)
		}
	}
	for i, l := range strings.Split(string(data), "\n") {
		if m := changesEntry.FindStringSubmatch(l); m != nil {
			check()
			pr, _ = strconv.Atoi(m[1])
			size, line = 0, i+1
		} else if !strings.HasPrefix(l, " ") {
			check() // an entry ends at the first line that does not continue it
			pr = 0
		}
		if pr > 0 {
			size += len(l) + 1
		}
	}
	check()
}

// TestOneEngineBoundary keeps the command and topk's Examples clients of
// the public package: what builds an engine, wires an ingest driver, runs a
// checkpoint loop or opens a frame does so behind repro/topk, and none of
// them may import the packages that would let it do so a second time.
// (Workloads, the oracle and TCP listen/dial are not the monitor and stay
// importable by the command.)
func TestOneEngineBoundary(t *testing.T) {
	behindTopk := regexp.MustCompile(`^repro/internal/(core|runtime|netrun|shardrun|fanout|coord|ingest|ckpt|wire)(/|$)`)
	files, err := filepath.Glob("cmd/topkmon/*.go")
	if err != nil {
		t.Fatal(err)
	}
	files = slices.DeleteFunc(files, func(f string) bool { return strings.HasSuffix(f, "_test.go") })
	for _, group := range [][]string{files, {"topk/example_test.go"}} {
		imports := 0
		for _, file := range group {
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				imports++
				if path := strings.Trim(imp.Path.Value, `"`); behindTopk.MatchString(path) {
					t.Errorf("%s imports %s; it must reach it through repro/topk", file, path)
				}
			}
		}
		if imports == 0 {
			t.Errorf("%v: no imports parsed", group)
		}
	}
}

// TestTopkLinksNoHarness keeps the simulation harness out of every program
// that links repro/topk: no non-test file of topk, or of a repo package it
// reaches through such files, imports the workloads, the rival algorithms,
// the simulator, the experiments or their statistics.
func TestTopkLinksNoHarness(t *testing.T) {
	harness := regexp.MustCompile(`^repro/internal/(sim|baseline|stream|bench|stats)(/|$)`)
	seen := map[string]bool{"repro/topk": true}
	for queue := []string{"repro/topk"}; len(queue) > 0; queue = queue[1:] {
		files, err := filepath.Glob(filepath.Join(strings.TrimPrefix(queue[0], "repro/"), "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				path := strings.Trim(imp.Path.Value, `"`)
				if !strings.HasPrefix(path, "repro/") || seen[path] {
					continue
				}
				if harness.MatchString(path) {
					t.Errorf("%s imports %s: a program that links repro/topk would link it too", file, path)
				}
				seen[path] = true
				queue = append(queue, path)
			}
		}
	}
	if !seen["repro/internal/core"] {
		t.Fatalf("the walk from repro/topk never reached repro/internal/core: %v", seen)
	}
}

// TestTestHelpersStayInTests keeps the test-helper packages out of every
// build: only _test.go files import internal/wire/wiretest or
// internal/fanout/fanouttest, besides those packages themselves.
func TestTestHelpersStayInTests(t *testing.T) {
	helpers := []string{"internal/wire/wiretest", "internal/fanout/fanouttest"}
	files := 0
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") || slices.Contains(helpers, filepath.ToSlash(filepath.Dir(path))) {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		files++
		for _, imp := range f.Imports {
			if p := strings.Trim(imp.Path.Value, `"`); slices.Contains(helpers, strings.TrimPrefix(p, "repro/")) {
				t.Errorf("%s imports %s, a package only tests may import", path, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 100 {
		t.Fatalf("walked only %d non-test Go files", files)
	}
}

// TestStrategyPackagesOnlyForward keeps internal/netrun and
// internal/shardrun what is left of them now that the link engine is one,
// internal/fanout's: forwarders for the names the benchmark harness
// imports, until it reaches hosts and trees through topk and the two
// packages go. Every non-test declaration there must be an alias of a
// fanout type or a function whose body is one return of a fanout call,
// every name they export one a benchmark/*.go file uses, and no non-test
// file outside benchmark/ may import either package.
func TestStrategyPackagesOnlyForward(t *testing.T) {
	forwarders := map[string]string{"repro/internal/netrun": "netrun", "repro/internal/shardrun": "shardrun"}
	used := map[string]bool{} // "netrun.Serve", …, as benchmark/*.go selects them
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") || forwarders["repro/"+dir] != "" {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		local := map[string]string{} // the file's name for each forwarding package
		for _, imp := range f.Imports {
			base := forwarders[strings.Trim(imp.Path.Value, `"`)]
			if base == "" {
				continue
			}
			if dir != "benchmark" {
				t.Errorf("%s imports %s; only the benchmark harness may, and it reaches fanout through it", path, imp.Path.Value)
			}
			name := base
			if imp.Name != nil {
				name = imp.Name.Name
			}
			local[name] = base
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && local[id.Name] != "" {
					used[local[id.Name]+"."+sel.Sel.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !used["netrun.Serve"] {
		t.Fatalf("benchmark/*.go uses %v of the forwarding packages; it used netrun.Serve", used)
	}
	// fromFanout reports whether e is fanout.Name.
	fromFanout := func(e ast.Expr) bool {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		id, ok := sel.X.(*ast.Ident)
		return ok && id.Name == "fanout"
	}
	for path, base := range forwarders {
		files, err := filepath.Glob(filepath.Join(strings.TrimPrefix(path, "repro/"), "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		decls := 0
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			check := func(name string, forwards bool) {
				decls++
				switch {
				case !forwards:
					t.Errorf("%s: %s is not a forwarder to fanout", file, name)
				case !used[base+"."+name]:
					t.Errorf("%s: %s.%s is used by no benchmark/*.go file", file, base, name)
				}
			}
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch sp := spec.(type) {
						case *ast.ImportSpec:
						case *ast.TypeSpec:
							check(sp.Name.Name, sp.Assign.IsValid() && fromFanout(sp.Type))
						case *ast.ValueSpec:
							check(sp.Names[0].Name, false)
						}
					}
				case *ast.FuncDecl:
					forwards := d.Recv == nil && d.Body != nil && len(d.Body.List) == 1
					if forwards {
						ret, ok := d.Body.List[0].(*ast.ReturnStmt)
						forwards = ok && len(ret.Results) == 1
						if forwards {
							call, ok := ret.Results[0].(*ast.CallExpr)
							forwards = ok && fromFanout(call.Fun)
						}
					}
					check(d.Name.Name, forwards)
				}
			}
		}
		if decls == 0 {
			t.Errorf("%s: no declarations parsed", path)
		}
	}
}

var updateAPI = flag.Bool("update", false, "rewrite topk/api.txt from this build")

const apiFile = "topk/api.txt"

// TestTopkAPIRecorded holds repro/topk's exported surface to topk/api.txt:
// every exported identifier of the package with its signature, the
// exported fields of its struct types and the exported methods of its
// types, promoted ones included, with their receivers, as go/types prints
// them. A change to the public API fails here with the lines that moved
// until the file is re-recorded (go test -run TestTopkAPIRecorded -update
// .), so the diff of the file is the API change a reviewer reads and the
// count later deletions are measured from.
func TestTopkAPIRecorded(t *testing.T) {
	l, err := analysis.NewModuleLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.Load("repro/topk")
	if err != nil {
		t.Fatal(err)
	}
	got := apiLines(pkg.Types)
	if *updateAPI {
		if err := os.WriteFile(apiFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	recorded, err := os.ReadFile(apiFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(recorded), "\n"), "\n")
	if slices.Equal(got, want) {
		return
	}
	var diff strings.Builder
	for _, line := range want {
		if !slices.Contains(got, line) {
			diff.WriteString("- " + line + "\n")
		}
	}
	for _, line := range got {
		if !slices.Contains(want, line) {
			diff.WriteString("+ " + line + "\n")
		}
	}
	t.Errorf("repro/topk's exported API drifted from %s (re-record with -update if it is meant to):\n%s", apiFile, diff.String())
}

// apiLines renders p's exported API one declaration a line, in name order.
func apiLines(p *types.Package) []string {
	qual := types.RelativeTo(p)
	var lines []string
	for _, name := range p.Scope().Names() {
		obj := p.Scope().Lookup(name)
		if !obj.Exported() {
			continue
		}
		tn, ok := obj.(*types.TypeName)
		if !ok {
			lines = append(lines, types.ObjectString(obj, qual))
			continue
		}
		st, isStruct := tn.Type().Underlying().(*types.Struct)
		if !isStruct || tn.IsAlias() {
			lines = append(lines, types.ObjectString(obj, qual))
		} else {
			lines = append(lines, "type "+name+" struct")
		}
		for i := 0; isStruct && i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() {
				lines = append(lines, "field "+name+"."+f.Name()+" "+types.TypeString(f.Type(), qual))
			}
		}
		if types.IsInterface(tn.Type()) {
			continue // its methods are in its type's line
		}
		vs, ps := types.NewMethodSet(tn.Type()), types.NewMethodSet(types.NewPointer(tn.Type()))
		for i := 0; i < ps.Len(); i++ {
			if m := ps.At(i).Obj(); m.Exported() {
				recv := "(*" + name + ") "
				if vs.Lookup(p, m.Name()) != nil {
					recv = "(" + name + ") "
				}
				var sig bytes.Buffer
				types.WriteSignature(&sig, m.Type().(*types.Signature), qual)
				lines = append(lines, "method "+recv+m.Name()+sig.String())
			}
		}
	}
	return lines
}
