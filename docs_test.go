// The documents are part of the contract: Go comments and the READMEs cite
// DESIGN.md by section number, DESIGN.md §8.2 is the normative table of wire
// record numbers, and every measured number lives in benchmark/README.md.
// These tests keep the three from rotting silently. No network, no build.
package distkcore_test

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// "DESIGN.md §8.4", "DESIGN §9", "DESIGN [§8.4](…)", a citation wrapped
	// across a comment line break ("DESIGN.md\n// §13"), and the sections
	// that follow in the same breath ("DESIGN.md §8.4, §14").
	designCite = regexp.MustCompile(`DESIGN(?:\.md)?(?:\s|//|\[)*§\d+(?:\.\d+)?(?:\]\([^)]*\))?(?:(?:,| and)\s+(?://\s*)?§\d+(?:\.\d+)?)*`)
	sectionRef = regexp.MustCompile(`§(\d+(?:\.\d+)?)`)
	heading    = regexp.MustCompile(`(?m)^#{2,3} §(\d+(?:\.\d+)?) (.+)$`)
	anchorLink = regexp.MustCompile(`DESIGN\.md#([a-z0-9-]+)`)
	recConst   = regexp.MustCompile(`(?m)^\s*[rR]ec([A-Za-z]+)\s*=\s*byte\((\d+)\)`)
	testCite   = regexp.MustCompile(`\b(?:Test|Fuzz)[A-Z]\w*`)
	testDecl   = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w+)\(`)
	camelBreak = regexp.MustCompile(`([a-z])([A-Z])`)
)

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// walkRepo calls visit for every regular file of the checkout outside .git
// and the benchmark's build/scratch directories.
func walkRepo(t *testing.T, visit func(path string)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() && (name == ".git" || name == ".bench_build" || strings.HasPrefix(name, ".bench_tmp-")) {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() {
			visit(filepath.ToSlash(path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// designSections returns the section numbers DESIGN.md has a heading for, and
// the GitHub anchor slug of each heading.
func designSections(design string) (sections, slugs map[string]bool) {
	sections, slugs = map[string]bool{}, map[string]bool{}
	for _, m := range heading.FindAllStringSubmatch(design, -1) {
		sections[m[1]] = true
		slug := strings.Map(func(r rune) rune {
			switch {
			case r == ' ':
				return '-'
			case r == '-' || r >= '0' && r <= '9' || r >= 'a' && r <= 'z':
				return r
			}
			return -1
		}, strings.ToLower("§"+m[1]+" "+m[2]))
		slugs[slug] = true
	}
	return sections, slugs
}

// Every "DESIGN.md §N[.M]" in a Go file or a README, every anchor link into
// DESIGN.md, and every §-reference DESIGN.md makes to itself must name a
// heading that exists.
func TestDesignCitationsResolve(t *testing.T) {
	design := readFile(t, "DESIGN.md")
	sections, slugs := designSections(design)
	if len(sections) < 20 || sections["5"] {
		t.Fatalf("DESIGN.md headings parsed as %v: want the §1–§14 set without §5", sections)
	}
	cited := 0
	check := func(path, text string, cites []string) {
		for _, c := range cites {
			for _, m := range sectionRef.FindAllStringSubmatch(c, -1) {
				cited++
				if !sections[m[1]] {
					t.Errorf("%s cites DESIGN.md §%s (%q), which has no heading", path, m[1], strings.Join(strings.Fields(c), " "))
				}
			}
		}
		for _, m := range anchorLink.FindAllStringSubmatch(text, -1) {
			if !slugs[m[1]] {
				t.Errorf("%s links DESIGN.md#%s, which is no heading's anchor", path, m[1])
			}
		}
	}
	walkRepo(t, func(path string) {
		if strings.HasSuffix(path, ".go") || path == "README.md" || path == "benchmark/README.md" {
			text := readFile(t, path)
			check(path, text, designCite.FindAllString(text, -1))
		}
	})
	check("DESIGN.md", design, sectionRef.FindAllString(design, -1))
	if cited < 100 {
		t.Fatalf("only %d citations found: the citation pattern no longer matches how the code cites DESIGN.md", cited)
	}
}

// DESIGN.md §8.2 is the normative record table: every record-type constant of
// internal/net/conn.go appears there as a row "| <number> | <name> |".
func TestDesignRecordTableMatchesConn(t *testing.T) {
	design := readFile(t, "DESIGN.md")
	consts := recConst.FindAllStringSubmatch(readFile(t, "internal/net/conn.go"), -1)
	if len(consts) < 24 {
		t.Fatalf("parsed %d record constants from conn.go, want at least 24", len(consts))
	}
	seen := map[string]string{}
	for _, m := range consts {
		name := strings.ToLower(camelBreak.ReplaceAllString(m[1], "$1-$2"))
		if prev, dup := seen[m[2]]; dup {
			t.Errorf("record number %s is both %s and %s in conn.go", m[2], prev, name)
		}
		seen[m[2]] = name
		if row := fmt.Sprintf("\n| %s | %s |", m[2], name); !strings.Contains(design, row) {
			t.Errorf("DESIGN.md §8.2 has no row %q for conn.go's rec%s = %s", strings.TrimSpace(row), m[1], m[2])
		}
	}
}

// The documents argue from tests by name — DESIGN.md's proofs end in "held by
// TestX", CI and the verify notes say which to run after touching what — so a
// test that is renamed or deleted must take its citations along. DESIGN.md,
// the README and ci.yml name tests exactly; the verify notes write `-run`
// patterns, which match by prefix.
func TestCitedTestsExist(t *testing.T) {
	var declared []string
	walkRepo(t, func(path string) {
		if strings.HasSuffix(path, "_test.go") {
			for _, m := range testDecl.FindAllStringSubmatch(readFile(t, path), -1) {
				declared = append(declared, m[1])
			}
		}
	})
	exists := func(name string, prefix bool) bool {
		for _, d := range declared {
			if d == name || prefix && strings.HasPrefix(d, name) {
				return true
			}
		}
		return false
	}
	cited := 0
	for _, doc := range []struct {
		path   string
		prefix bool
	}{
		{"DESIGN.md", false},
		{"README.md", false},
		{".github/workflows/ci.yml", false},
		{".claude/skills/verify/SKILL.md", true},
	} {
		for _, name := range testCite.FindAllString(readFile(t, doc.path), -1) {
			cited++
			if !exists(name, doc.prefix) {
				t.Errorf("%s cites %s, which no _test.go file declares", doc.path, name)
			}
		}
	}
	// The weak densest protocol's change-driven argument (DESIGN.md §2) rests
	// on these; the section must go on naming them.
	design := readFile(t, "DESIGN.md")
	for _, name := range []string{"TestWeakMessagesMatchChangeOracle", "TestWeakSleepingChangesNoExecution",
		"TestWeakHooksRunOnBenchmarkGraph", "TestWeakDensestOnEverySurface", "TestTiedSubsetsKeepOneOrder"} {
		if !strings.Contains(design, name) || !exists(name, false) {
			t.Errorf("%s must be declared and cited in DESIGN.md", name)
		}
	}
	if cited < 100 {
		t.Fatalf("only %d test names found in the documents: the pattern no longer matches how they are cited", cited)
	}
}

// The measurement layer the trusted benchmark superseded, the latency seam
// only the relay honoured, round fusion, the net workers' stand-in programs
// for remote senders, the checkpoint restart scheme (driver snapshots, its two
// records, its retention depth) and the one-shot churned run (its record, its
// absorption, its CLI parsing) and the pool's fitted range weight (a step
// phase's nodes come off a cursor) are gone; nothing may cite them again. The
// archive (CHANGES.md), the plan (ROADMAP.md, ISSUE.md) and the frozen
// benchmark directory may name them.
func TestRetiredNamesStayRetired(t *testing.T) {
	retired := []string{"BENCH_PR", "cmd/bench", "prodn", "DKC_PERF_SMOKE", "DelayFunc", "ModelDelay",
		"Fusible", "RoundFusionSafe", "FusedRanges", "ghost program",
		"Checkpointable", "AppendSnapshot", "RestoreSnapshot", "recCheckpoint", "retainRounds",
		"recDelta", "AbsorbDelta", "ApplyChurn", "ParseChurnSpec", "netChurn",
		"rangeNodeWeight", "recStreamResend", "recStreamReplay", "mesh.barrier"}
	exempt := map[string]bool{"CHANGES.md": true, "ROADMAP.md": true, "ISSUE.md": true, "docs_test.go": true}
	walkRepo(t, func(path string) {
		if exempt[path] || strings.HasPrefix(path, "benchmark/") {
			return
		}
		text := readFile(t, path)
		for _, name := range retired {
			if i := strings.Index(text, name); i >= 0 {
				t.Errorf("%s:%d mentions retired name %q", path, 1+strings.Count(text[:i], "\n"), name)
			}
		}
	})
}
