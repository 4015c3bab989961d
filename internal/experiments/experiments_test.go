package experiments

import (
	"strings"
	"testing"

	"distkcore/internal/dist"
	dnet "distkcore/internal/net"
	"distkcore/internal/shard"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Fatalf("position %d: %s, want %s (numeric ordering)", i, all[i].ID, id)
		}
	}
	if _, ok := ByID("e4"); !ok {
		t.Fatal("ByID must be case-insensitive")
	}
	if _, ok := ByID("E99"); ok {
		t.Fatal("unknown ID must not resolve")
	}
}

func TestAllExperimentsRunShort(t *testing.T) {
	cfg := Config{Short: true, Seed: 42}
	for _, s := range All() {
		s := s
		t.Run(s.ID, func(t *testing.T) {
			rep := s.Run(cfg)
			if rep.ID != s.ID {
				t.Fatalf("report ID %s, want %s", rep.ID, s.ID)
			}
			if len(rep.Tables) == 0 {
				t.Fatal("experiment produced no tables")
			}
			out := rep.String()
			if !strings.Contains(out, rep.Claim) {
				t.Fatal("rendered report must carry the paper claim")
			}
			for _, tab := range rep.Tables {
				if strings.TrimSpace(tab.Body) == "" {
					t.Fatalf("empty table %q", tab.Name)
				}
			}
			// no experiment is allowed to report a bound violation
			if strings.Contains(out, "MISMATCH") {
				t.Fatalf("experiment reported a mismatch:\n%s", out)
			}
		})
	}
}

func TestE2ReportsZeroViolations(t *testing.T) {
	rep := runE2(Config{Short: true, Seed: 7})
	for _, n := range rep.Notes {
		if strings.Contains(n, "violations") && !strings.Contains(n, "violations 0") {
			t.Fatalf("E2 found bound violations: %s", n)
		}
		if strings.Contains(n, "holds: false") {
			t.Fatalf("E2 sandwich failed: %s", n)
		}
	}
}

func TestE4GuaranteeColumnsAllTrue(t *testing.T) {
	rep := runE4(Config{Short: true, Seed: 8})
	for _, tab := range rep.Tables {
		if strings.Contains(tab.Body, "false") {
			t.Fatalf("E4 guarantee column contains false:\n%s", tab.Body)
		}
	}
}

func TestDeterministicReports(t *testing.T) {
	a := runE1(Config{Short: true, Seed: 3}).String()
	b := runE1(Config{Short: true, Seed: 3}).String()
	if a != b {
		t.Fatal("experiments must be deterministic for a fixed seed")
	}
}

func TestE18GreedyBeatsHashOnPowerLaw(t *testing.T) {
	// The headline of the sharding experiment: the LDG partitioner moves
	// strictly fewer cross-shard frame bytes than hash placement on the
	// power-law workload at every P ≥ 4.
	rep := runE18(Config{Short: true, Seed: 42})
	found := false
	for _, n := range rep.Notes {
		if strings.Contains(n, "fewer frame bytes than hash") {
			found = true
			if !strings.Contains(n, "true") {
				t.Fatalf("greedy does not beat hash: %s", n)
			}
		}
	}
	if !found {
		t.Fatal("E18 did not report the greedy-vs-hash verdict")
	}
}

func TestExperimentsRunOnConfiguredEngine(t *testing.T) {
	// Engine selection is a Config field: the engine-backed experiments
	// must produce byte-identical reports on every engine — the sharded one
	// and the streamed socket cluster here.
	stream := dnet.NewEngine(4, shard.Greedy{})
	stream.Stream = true
	for id, run := range map[string]func(Config) *Report{"E2": runE2, "E6": runE6, "E7": runE7} {
		seq := run(Config{Short: true, Seed: 5}).String()
		for _, eng := range []dist.Engine{shard.NewEngine(4, shard.Greedy{}), stream} {
			got := strings.ReplaceAll(run(Config{Short: true, Seed: 5, Engine: eng}).String(), engineName(eng), "seq")
			if got != seq {
				t.Fatalf("%s differs on %s:\n--- seq ---\n%s\n--- %s ---\n%s", id, engineName(eng), seq, engineName(eng), got)
			}
		}
	}
}
