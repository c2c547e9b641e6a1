package main

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{7}, 7, 7, 7},
		{[]float64{2, 1}, 1.25, 1.5, 1.75},
		{[]float64{5, 1, 4, 2, 3}, 2, 3, 4},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 3.25, 5.5, 7.75},
	} {
		if q1, med, q3 := quartiles(c.xs); q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v, want %v, %v, %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
	xs := []float64{3, 1, 2}
	quartiles(xs)
	if xs[0] != 3 || xs[1] != 1 {
		t.Fatal("quartiles sorted its argument in place")
	}
}

func TestJudge(t *testing.T) {
	base := []float64{10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name         string
		change       []float64
		higherBetter bool
		moreFailed   bool
		wins         int
		verdict      string
	}{
		{"lower wins every pair", scaled(0.9), false, false, 10, "better"},
		{"a gain with more failures", scaled(0.9), false, true, 10, "same (more operations failed)"},
		{"higher is better", scaled(1.1), true, false, 10, "better"},
		{"within the base's spread", scaled(0.999), false, false, 10, "same"},
		{"beyond the bound", scaled(1.3), false, false, 0, "worse"},
		{"worse is worse with failures too", scaled(1.3), false, true, 0, "worse"},
		{"inside the bound", scaled(1.1), false, false, 0, "same"},
		{"higher-is-better falls", scaled(0.7), true, false, 0, "worse"},
	} {
		wins, verdict := judge(base, c.change, c.higherBetter, 0.2, c.moreFailed)
		if wins != c.wins || verdict != c.verdict {
			t.Errorf("%s: %d wins, %q; want %d, %q", c.name, wins, verdict, c.wins, c.verdict)
		}
	}
	// Eight of ten pairs are not nine tenths, however large the gain.
	change := scaled(0.5)
	change[0], change[1] = base[0]*2, base[1]*2
	if wins, verdict := judge(base, change, false, 0.2, false); wins != 8 || verdict != "same" {
		t.Fatalf("8 of 10 pairs: %d wins, %q", wins, verdict)
	}
}

func TestLineAt(t *testing.T) {
	nm := strings.Join([]string{
		"  4a1b20 T dista/internal/instrument.(*Endpoint).Read",
		"  4a2c48 T dista/internal/instrument.(*streamReader).adoptGroups",
		"  4a2c48 T malformed line",
		"  4a3d00 T dista/internal/instrument.encodeDense",
		"  4b0020 T dista/internal/core/taint.(*shadow).forEach",
		"  4b0060 T dista/internal/core/taint.(*shadow).forEach.func1",
		"  4b10f0 T dista/internal/core/taint.(*Bytes).SetLabel",
	}, "\n")
	want := []uint64{0x4a2c48, 0, 0x4a3d00, 0x4b0020, 0x4b10f0} // in denseLoops' order; putDense is absent
	if len(denseLoops) != len(want) {
		t.Fatalf("%d dense loops, the test knows %d", len(denseLoops), len(want))
	}
	for k, loop := range denseLoops {
		if addr, ok := lineAt(nm, loop); ok != (want[k] != 0) || addr != want[k] {
			t.Errorf("lineAt(%s) = %#x, %v; want %#x", short(loop[0]), addr, ok, want[k])
		}
	}
	if _, ok := lineAt(nm, []string{"dista/internal/instrument.missing"}); ok {
		t.Fatal("found a symbol that is not there")
	}
}

func TestParseResultMissingMetric(t *testing.T) {
	var mf manifest
	if err := json.Unmarshal([]byte(`{"end_to_end": [{"name": "overhead_x"}, {"name": "setup_s"}]}`), &mf); err != nil {
		t.Fatal(err)
	}
	full := "warming up\n" + `{"attempted": 4, "failed": 1, "metrics": {"overhead_x": {"value": 1.5}, "setup_s": {"value": 0}}}`
	r, err := parseResult(full, mf)
	if err != nil || r.Attempted != 4 || r.Failed != 1 || r.Metrics["overhead_x"].Value != 1.5 {
		t.Fatalf("parseResult = %+v, %v", r, err)
	}
	if _, err := parseResult(`{"metrics": {"overhead_x": {"value": 1.5}}}`, mf); err == nil || !strings.Contains(err.Error(), "setup_s") {
		t.Fatalf("a result without setup_s: %v", err)
	}
	if _, err := parseResult("not json", mf); err == nil {
		t.Fatal("a last line that is not JSON parsed")
	}
}
