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
	faultnetIm = regexp.MustCompile(`(?m)^\s*(?:\w+\s+)?"distkcore/internal/net/faultnet"$`)
	camelBreak = regexp.MustCompile(`([a-z])([A-Z])`)
	killTapRec = regexp.MustCompile(`(?m)^const recDone, recStreamDone = (\d+), (\d+)$`)
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
// internal/net/conn.go appears there as a row "| <number> | <name> |", and in
// FuzzRecordBodies as a row of the same number and name, so a record cannot
// join the wire without its body's round trip. The one copy of two numbers
// outside conn.go — cmd/cluster's -kill tap, which reads the done records off
// the wire — is held to them too: a renumbering would otherwise disarm -kill
// without a word.
func TestDesignRecordTableMatchesConn(t *testing.T) {
	design := readFile(t, "DESIGN.md")
	consts := recConst.FindAllStringSubmatch(readFile(t, "internal/net/conn.go"), -1)
	if len(consts) < 22 {
		t.Fatalf("parsed %d record constants from conn.go, want at least 22", len(consts))
	}
	fuzzed := map[string]string{}
	for _, r := range recordBodies() {
		fuzzed[fmt.Sprint(r.num)] = r.name
	}
	if len(fuzzed) != len(consts) {
		t.Errorf("FuzzRecordBodies has %d rows for conn.go's %d record constants", len(fuzzed), len(consts))
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
		if fuzzed[m[2]] != name {
			t.Errorf("FuzzRecordBodies has no row %s %q for conn.go's rec%s", m[2], name, m[1])
		}
	}
	tap := killTapRec.FindStringSubmatch(readFile(t, "cmd/cluster/main.go"))
	if tap == nil {
		t.Fatal("cmd/cluster/main.go declares no `const recDone, recStreamDone = N, M` for its kill tap")
	}
	for i, name := range []string{"done", "stream-done"} {
		if seen[tap[i+1]] != name {
			t.Errorf("cmd/cluster's kill tap takes record %s for %s; conn.go numbers that record %q", tap[i+1], name, seen[tap[i+1]])
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
// absorption, its CLI parsing), the pool's fitted range weight (a step
// phase's nodes come off a cursor), the in-protocol kill seams (a death is
// scheduled on the links now, internal/net/faultnet), the event-queue
// simulator with its own program, context and per-peer table (the
// asynchronous elimination is a Program on the round engines), E12's copy of
// Updater, the facade's worker-count constructor, the relay's replay of a
// recovered run (its record, codec, trace phase and state), the session's
// resume record, the hypercube mesh topology (its hello byte, its
// threshold knobs, its neighbor and hop rules) and recovery as an opt-in mode
// (its spec, engine, session and hello fields, the mesh's switch, the
// engine's streamed-or-recovering test) are gone; nothing may cite them
// again. The archive (CHANGES.md), the plan documents and the frozen
// benchmark directory may name them.
func TestRetiredNamesStayRetired(t *testing.T) {
	retired := []string{"BENCH_PR", "cmd/bench", "prodn", "DKC_PERF_SMOKE", "DelayFunc", "ModelDelay",
		"Fusible", "RoundFusionSafe", "FusedRanges", "ghost program",
		"Checkpointable", "AppendSnapshot", "RestoreSnapshot", "recCheckpoint", "retainRounds",
		"recDelta", "AbsorbDelta", "ApplyChurn", "ParseChurnSpec", "netChurn",
		"rangeNodeWeight", "recStreamResend", "recStreamReplay", "mesh.barrier",
		"KillAt", "KillFunc", "ErrKilled", "OnRound", "killPlan",
		"AsyncProgram", "AsyncCtx", "AsyncFactory", "AsyncMetrics", "eventQueue", "PeerTable",
		"asyncElimination", "UnstableUpdater", "RunAblatedTieBreak", "ParallelWorkers",
		"recReplay", "codec.Replay", "AppendReplay", "DecodeReplay", "PhaseReplay", "replayLeft",
		"relayCoord.hist", "workerLoop.replay", "RecEpochResume",
		"MeshCube", "MeshFull", "MeshKind", "MeshThreshold", "meshHop", "meshKindFor", "meshNeighbors",
		"defaultMeshThreshold",
		"Spec.Recover", "Engine.Recover", "Options.Recover", "Hello.Recover", "cfg.Recover", "e.streamed",
		"ServeWorker", "runB", "collectEchoes", "EnableRecovery",
		"Maintainer.eval", "TestEvalAtAnyPivot", "TestMassOnlyUnderExactSums",
		"WindowCredit", "defaultWindow", "queueLocked",
		// outRec with what can stand before it: "WithoutRecovery" holds it bare.
		" outRec", "]outRec", "`outRec`", "retainBlock", "maxReservedEnds", "meshPeer.retained"}
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

// faultnet is test support: the seam it stands on (net.Cluster.Wrap) is
// the program's, the schedules are the tests' alone.
func TestOnlyTestsImportFaultnet(t *testing.T) {
	importers := 0
	walkRepo(t, func(path string) {
		if strings.HasSuffix(path, ".go") && faultnetIm.MatchString(readFile(t, path)) {
			if importers++; !strings.HasSuffix(path, "_test.go") {
				t.Errorf("%s imports internal/net/faultnet; only _test.go files may", path)
			}
		}
	})
	if importers == 0 {
		t.Fatal("no file imports internal/net/faultnet: the import pattern no longer matches")
	}
}
