package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestJSONLGolden pins the trace-file schema: field names, field order, and
// the t_ms clock base. rdlroute -trace consumers parse exactly these lines.
func TestJSONLGolden(t *testing.T) {
	var sb strings.Builder
	clock := time.Unix(100, 0)
	now := func() time.Time {
		clock = clock.Add(500 * time.Microsecond)
		return clock
	}
	j := newJSONL(&sb, now) // first tick consumed as the start time

	j.StageStart("global")
	j.Progress("global", 3, 22)
	j.Count("global.astar.expansions", 1234)
	j.Gauge("routability", 1)
	j.StageEnd("global", 9500*time.Microsecond)

	const golden = `{"t_ms":0.5,"ev":"stage_start","stage":"global"}
{"t_ms":1,"ev":"progress","stage":"global","done":3,"total":22}
{"t_ms":1.5,"ev":"count","name":"global.astar.expansions","delta":1234}
{"t_ms":2,"ev":"gauge","name":"routability","value":1}
{"t_ms":2.5,"ev":"stage_end","stage":"global","ms":9.5}
`
	if sb.String() != golden {
		t.Errorf("trace schema drifted:\n got: %q\nwant: %q", sb.String(), golden)
	}
}

// TestJSONLKeepsZeroNumbers pins that a zero counter delta or gauge value
// is written as a number: a zero is data (global.nets_failed on a clean
// run), not an absent field.
func TestJSONLKeepsZeroNumbers(t *testing.T) {
	var sb strings.Builder
	clock := time.Unix(100, 0)
	j := newJSONL(&sb, func() time.Time { return clock })
	j.Count("global.nets_failed", 0)
	j.Gauge("drc.findings", 0)

	const golden = `{"t_ms":0,"ev":"count","name":"global.nets_failed","delta":0}
{"t_ms":0,"ev":"gauge","name":"drc.findings","value":0}
`
	if sb.String() != golden {
		t.Errorf("zero-valued events:\n got: %q\nwant: %q", sb.String(), golden)
	}
}

// Every line must round-trip as standalone JSON with "ev" and "t_ms"
// present — the minimal contract for line-oriented trace consumers.
func TestJSONLLinesParse(t *testing.T) {
	var sb strings.Builder
	j := NewJSONL(&sb)
	j.StageStart("viaplan")
	j.StageEnd("viaplan", time.Millisecond)
	j.Count("rgraph.nodes", 42)
	j.Progress("detail", 1, 2)
	j.Gauge("wirelength_um", 18761)

	lines := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines, want 5", len(lines))
	}
	for i, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d not JSON: %v\n%s", i, err, line)
		}
		if _, ok := m["ev"]; !ok {
			t.Errorf("line %d missing ev: %s", i, line)
		}
		if _, ok := m["t_ms"]; !ok {
			t.Errorf("line %d missing t_ms: %s", i, line)
		}
	}
}
