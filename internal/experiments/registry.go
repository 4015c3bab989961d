// Package experiments regenerates every figure, theorem-as-table and
// full-version empirical claim of the paper (see DESIGN.md §4 for the
// index). Each experiment is a pure function from a Config to a Report of
// ASCII tables; cmd/repro prints them.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"distkcore/internal/dist"
)

// Config scales the experiment workloads.
type Config struct {
	// Short shrinks every workload for CI-sized runs.
	Short bool
	// Seed drives all generators.
	Seed int64
	// Engine is the dist.Engine the distributed runs inside experiments
	// execute on (nil means dist.SeqEngine{}). All engines are
	// byte-identical, so the reproduced numbers cannot change — this is
	// what lets cmd/repro's -engine flag re-run E2/E6/E7 sharded without
	// code changes.
	Engine dist.Engine
}

// engine returns the configured engine, defaulting to the sequential
// reference scheduler.
func (c Config) engine() dist.Engine {
	if c.Engine != nil {
		return c.Engine
	}
	return dist.SeqEngine{}
}

// engineName labels cfg.engine() in report notes; every engine in the tree
// carries a Name method, so the fallback only fires for third-party ones.
func engineName(e dist.Engine) string {
	if n, ok := e.(interface{ Name() string }); ok {
		return n.Name()
	}
	return fmt.Sprintf("%T", e)
}

// equalVectors reports exact element-wise equality — the engines' contract
// is byte-identity, so cross-engine comparisons use no tolerance.
func equalVectors(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// mismatchTag renders the registry-wide failure marker when ok is false;
// the experiment test suite fails any report carrying it.
func mismatchTag(ok bool) string {
	if ok {
		return ""
	}
	return " MISMATCH"
}

// Report is the output of one experiment.
type Report struct {
	ID, Title string
	// Claim is the paper artifact being reproduced.
	Claim string
	// Tables hold the regenerated rows.
	Tables []Table
	// Notes carry measured summary lines ("max ratio 1.98 ≤ bound 3.0").
	Notes []string
}

// Table is a named ASCII table.
type Table struct {
	Name string
	Body string
}

// String renders the report.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", r.ID, r.Title)
	fmt.Fprintf(&sb, "reproduces: %s\n\n", r.Claim)
	for _, t := range r.Tables {
		if t.Name != "" {
			fmt.Fprintf(&sb, "-- %s --\n", t.Name)
		}
		sb.WriteString(t.Body)
		sb.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// Spec names a runnable experiment.
type Spec struct {
	ID    string
	Title string
	Run   func(Config) *Report
}

var registry = map[string]Spec{}

func register(s Spec) { registry[s.ID] = s }

// All returns every registered experiment sorted by ID.
func All() []Spec {
	out := make([]Spec, 0, len(registry))
	for _, s := range registry {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		// numeric-aware: E1 < E2 < ... < E10
		return specKey(out[i].ID) < specKey(out[j].ID)
	})
	return out
}

func specKey(id string) int {
	n := 0
	for _, c := range id {
		if c >= '0' && c <= '9' {
			n = n*10 + int(c-'0')
		}
	}
	return n
}

// ByID looks an experiment up.
func ByID(id string) (Spec, bool) {
	s, ok := registry[strings.ToUpper(strings.TrimSpace(id))]
	return s, ok
}
