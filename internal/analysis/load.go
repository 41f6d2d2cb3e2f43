package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package ready for analysis.
type Package struct {
	// Path is the package's import path ("repro/internal/coord" for
	// module packages, "coord" for fixture packages).
	Path string
	// Dir is the directory the sources were read from.
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages without the go/packages
// machinery: module-internal (or fixture-internal) imports are resolved
// to directories and loaded recursively, everything else is delegated to
// the standard library's source importer, which type-checks GOROOT
// sources directly and therefore needs no pre-built export data and no
// network. Loaders are not safe for concurrent use.
type Loader struct {
	Fset *token.FileSet

	// resolve maps an import path to the directory holding its sources,
	// or reports that the path is not load-managed (then the std importer
	// handles it).
	resolve func(path string) (string, bool)

	// rootPath is the import path of the tree root: the module path for
	// module loaders, empty for fixture loaders (which are loaded by
	// explicit path, never by pattern).
	rootPath string

	std  types.ImporterFrom
	pkgs map[string]*Package
	busy map[string]bool // import-cycle detection
}

// NewModuleLoader loads packages of the module rooted at root, whose
// import paths start with the module path declared in root's go.mod.
func NewModuleLoader(root string) (*Loader, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	l := newLoader()
	l.rootPath = modPath
	l.resolve = func(path string) (string, bool) {
		if path == modPath {
			return root, true
		}
		if rest, ok := strings.CutPrefix(path, modPath+"/"); ok {
			return filepath.Join(root, filepath.FromSlash(rest)), true
		}
		return "", false
	}
	return l, nil
}

// NewFixtureLoader loads packages GOPATH-style from srcRoot: import path
// "p/q" resolves to srcRoot/p/q. It is the loader behind the
// analysistest fixtures under testdata/src.
func NewFixtureLoader(srcRoot string) *Loader {
	l := newLoader()
	l.resolve = func(path string) (string, bool) {
		dir := filepath.Join(srcRoot, filepath.FromSlash(path))
		if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
			return dir, true
		}
		return "", false
	}
	return l
}

func newLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset: fset,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs: make(map[string]*Package),
		busy: make(map[string]bool),
	}
}

// Load loads, parses and type-checks the package with the given managed
// import path (and, recursively, everything it imports).
func (l *Loader) Load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	dir, ok := l.resolve(path)
	if !ok {
		return nil, fmt.Errorf("analysis: import path %q is not inside the loaded tree", path)
	}
	if l.busy[path] {
		return nil, fmt.Errorf("analysis: import cycle through %q", path)
	}
	l.busy[path] = true
	defer delete(l.busy, path)

	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go sources in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: (*loaderImporter)(l)}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}

// LoadPatterns expands package patterns relative to root — "./..."
// recursively, "./x/y" as a single package — and loads every match.
// Directories named testdata (analyzer fixtures with deliberate
// violations) and hidden directories are skipped, as is any directory
// without non-test Go sources.
func (l *Loader) LoadPatterns(root string, patterns ...string) ([]*Package, error) {
	dirs := make(map[string]bool)
	for _, pat := range patterns {
		rec := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			rec, pat = true, rest
		}
		if pat == "" || pat == "." {
			pat = "."
		}
		base := filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(pat, "./")))
		if !rec {
			dirs[base] = true
			continue
		}
		err := filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			dirs[p] = true
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	var ordered []string
	for dir := range dirs {
		if hasGoSources(dir) {
			ordered = append(ordered, dir)
		}
	}
	sort.Strings(ordered)

	var pkgs []*Package
	for _, dir := range ordered {
		path, err := l.pathForDir(root, dir)
		if err != nil {
			return nil, err
		}
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// pathForDir inverts resolve for module loaders: dir under root maps back
// to the managed import path.
func (l *Loader) pathForDir(root, dir string) (string, error) {
	if l.rootPath == "" {
		return "", fmt.Errorf("analysis: pattern loading needs a module loader (dir %s)", dir)
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.rootPath, nil
	}
	return l.rootPath + "/" + filepath.ToSlash(rel), nil
}

// hasGoSources reports whether dir holds at least one non-test Go file.
func hasGoSources(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		n := e.Name()
		if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			return true
		}
	}
	return false
}

// parseDir parses every non-test Go file in dir that a default build
// selects — build constraints apply, so a file kept for -race builds only
// is left out — with comments attached.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, n); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// loaderImporter adapts Loader to types.ImporterFrom: managed paths load
// recursively, everything else falls through to the std source importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	return li.ImportFrom(path, "", 0)
}

func (li *loaderImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	l := (*Loader)(li)
	if _, ok := l.resolve(path); ok {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

// modulePath extracts the module declaration from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module declaration in %s", gomod)
}
