package obs

import (
	"encoding/json"
	"os"
)

// RunReport is the report envelope of cmd/cluster's -json run report (the CI
// smokes assert on its verified and phases fields).
//
// Metrics/Sharding are `any` on purpose: this package sits below dist and
// shard in the import graph (they call into it to trace), so it cannot name
// their metric types — callers pass dist.Metrics and shard.ShardMetrics
// values and the JSON keys come from those structs, identical at every call
// site by construction.
type RunReport struct {
	Graph     string       `json:"graph,omitempty"`
	Engine    string       `json:"engine,omitempty"`
	Workers   int          `json:"workers,omitempty"`
	Part      string       `json:"part,omitempty"`
	Rounds    int          `json:"rounds,omitempty"`
	Metrics   any          `json:"metrics,omitempty"`
	Sharding  any          `json:"sharding,omitempty"`
	Phases    []PhaseTotal `json:"phases,omitempty"`
	Verified  bool         `json:"verified"`
	ElapsedMS int64        `json:"elapsed_ms,omitempty"`
}

// MarshalReport is the marshaling path for run reports: indented JSON with a
// trailing newline.
func MarshalReport(v any) ([]byte, error) {
	enc, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(enc, '\n'), nil
}

// WriteReportFile marshals v through MarshalReport and writes it to path
// ("-" means stdout).
func WriteReportFile(path string, v any) error {
	enc, err := MarshalReport(v)
	if err != nil {
		return err
	}
	if path == "-" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(path, enc, 0o644)
}
