package stats

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("alpha", 1.0)
	tb.AddRow("b", 0.123456)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines=%d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name") {
		t.Fatal("header missing")
	}
	if !strings.Contains(out, "0.1235") {
		t.Fatalf("float formatting: %s", out)
	}
	if !strings.Contains(out, "alpha  1") {
		t.Fatalf("integer-valued float must print bare: %s", out)
	}
}
