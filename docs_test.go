package repro

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
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

// TestOneEngineBoundary keeps the command and the examples clients of the
// public package: what builds an engine, wires an ingest driver, runs a
// checkpoint loop or opens a frame does so behind repro/topk, and none of
// them may import the packages that would let it do so a second time.
// (Workloads, the oracle and TCP listen/dial are not the monitor and stay
// importable.)
func TestOneEngineBoundary(t *testing.T) {
	behindTopk := regexp.MustCompile(`^repro/internal/(core|runtime|netrun|shardrun|fanout|coord|ingest|ckpt|wire)(/|$)`)
	dirs, err := filepath.Glob("examples/*")
	if err != nil {
		t.Fatal(err)
	}
	dirs = append(dirs, "cmd/topkmon")
	if len(dirs) < 9 {
		t.Fatalf("found only %v", dirs)
	}
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		imports := 0
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
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
			t.Errorf("%s: no imports parsed", dir)
		}
	}
}
