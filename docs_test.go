// Docs checks: every relative markdown link in the repository must point
// at a file or directory that exists, and every test, benchmark or fuzz
// target the docs cite must exist, so README/DESIGN/EXPERIMENTS never
// ship dangling references. CI runs these in the docs job; they also run
// with the ordinary test suite.
package plurality_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// linkRE matches inline markdown links/images: [text](target). Reference
// definitions and autolinks are out of scope — the repo's docs use the
// inline form.
var linkRE = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)

func TestMarkdownLinks(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".md") {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		for _, line := range strings.Split(string(raw), "\n") {
			for _, m := range linkRE.FindAllStringSubmatch(line, -1) {
				target := m[1]
				switch {
				case strings.HasPrefix(target, "http://"),
					strings.HasPrefix(target, "https://"),
					strings.HasPrefix(target, "mailto:"),
					strings.HasPrefix(target, "#"):
					continue
				}
				// Drop a #fragment; anchors are not checked.
				if i := strings.IndexByte(target, '#'); i >= 0 {
					target = target[:i]
				}
				if target == "" {
					continue
				}
				resolved := filepath.Join(filepath.Dir(path), filepath.FromSlash(target))
				if _, err := os.Stat(resolved); err != nil {
					t.Errorf("%s: dangling link %q (resolved %s)", rel, m[1], resolved)
				}
				checked++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no markdown links found — the walker is broken")
	}
}

// citedDocs are the documents whose citations of tests name the proof of
// a claim.
var citedDocs = []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"}

// testFuncRE matches the declaration of a test, benchmark or fuzz target;
// citedRE matches such a name cited in prose; patternRE matches one
// cited as a `go test -bench`/`-run` pattern, where it may be a prefix.
var (
	testFuncRE = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	citedRE    = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	patternRE  = regexp.MustCompile(`-(?:bench|run)[= ]['"]?\^?((?:Test|Benchmark|Fuzz)\w*)`)
)

// TestDocsCiteExistingTests fails when README.md, DESIGN.md or the verify
// skill cites a Test…, Benchmark… or Fuzz… name that no _test.go file in
// the repository declares, so a deleted or renamed test cannot stay
// cited as the proof of a claim.
func TestDocsCiteExistingTests(t *testing.T) {
	var funcs []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir // .git, build caches
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFuncRE.FindAllSubmatch(raw, -1) {
			funcs = append(funcs, string(m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	declared := func(name string, prefix bool) bool {
		for _, f := range funcs {
			if f == name || prefix && strings.HasPrefix(f, name) {
				return true
			}
		}
		return false
	}
	cited := 0
	for _, doc := range citedDocs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(raw), "\n") {
			patterns := map[string]bool{}
			for _, m := range patternRE.FindAllStringSubmatch(line, -1) {
				patterns[m[1]] = true
			}
			for _, name := range citedRE.FindAllString(line, -1) {
				cited++
				if !declared(name, patterns[name]) {
					t.Errorf("%s:%d cites %s, which no _test.go declares", doc, i+1, name)
				}
			}
		}
	}
	if cited == 0 {
		t.Fatal("no test names cited — the scanner is broken")
	}
}
