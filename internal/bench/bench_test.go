package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"dista/internal/core/tracker"
	"dista/internal/microbench"
)

func TestOverheadMath(t *testing.T) {
	if got := Overhead(200*time.Millisecond, 100*time.Millisecond); got != 2 {
		t.Fatalf("overhead = %v", got)
	}
	if got := Overhead(time.Second, 0); got != 0 {
		t.Fatalf("zero base overhead = %v", got)
	}
}

func TestScenarioString(t *testing.T) {
	if SDT.String() != "SDT" || SIM.String() != "SIM" {
		t.Fatal("scenario spellings")
	}
	if !strings.Contains(Scenario(9).String(), "9") {
		t.Fatal("unknown scenario")
	}
}

func TestMeasureCaseOrdersModes(t *testing.T) {
	c, _ := microbench.CaseByID(1)
	row, err := MeasureCase(c, 16<<10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if row.Original <= 0 || row.Phosphor <= 0 || row.Dista <= 0 {
		t.Fatalf("row = %+v", row)
	}
	if row.DistaOverhead() <= 0 || row.PhosphorOverhead() <= 0 {
		t.Fatal("overheads must be positive")
	}
}

func TestSummarizeTableVShape(t *testing.T) {
	// Synthetic rows: 3 socket cases and 2 other groups.
	mk := func(group string, o, p, d time.Duration) MicroRow {
		return MicroRow{
			Case:     microbench.Case{Group: group, Name: group},
			Original: o, Phosphor: p, Dista: d,
		}
	}
	rows := []MicroRow{
		mk("JRE Socket", 10*time.Millisecond, 20*time.Millisecond, 30*time.Millisecond),
		mk("JRE Socket", 10*time.Millisecond, 25*time.Millisecond, 60*time.Millisecond),
		mk("JRE Socket", 10*time.Millisecond, 22*time.Millisecond, 40*time.Millisecond),
		mk("JRE HTTP", 5*time.Millisecond, 9*time.Millisecond, 12*time.Millisecond),
		mk("Netty Socket", 7*time.Millisecond, 15*time.Millisecond, 21*time.Millisecond),
	}
	sum := SummarizeTableV(rows)
	names := make([]string, len(sum))
	for i, r := range sum {
		names[i] = r.Name
	}
	want := []string{"JRE Socket-Best", "JRE Socket-Worst", "JRE Socket-Avg", "JRE HTTP", "Netty Socket", "Average"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("rows = %v", names)
	}
	if sum[0].Dista != 30*time.Millisecond || sum[1].Dista != 60*time.Millisecond {
		t.Fatal("best/worst selection wrong")
	}
	if sum[2].Dista != (30+60+40)*time.Millisecond/3 {
		t.Fatalf("socket avg = %v", sum[2].Dista)
	}

	var buf bytes.Buffer
	WriteTableV(&buf, sum)
	out := buf.String()
	if !strings.Contains(out, "TABLE V") || !strings.Contains(out, "JRE Socket-Best") {
		t.Fatalf("table output:\n%s", out)
	}
}

func TestWriteTableII(t *testing.T) {
	var buf bytes.Buffer
	WriteTableII(&buf)
	out := buf.String()
	if !strings.Contains(out, "TABLE II") || !strings.Contains(out, "Netty HTTP") {
		t.Fatalf("table II output:\n%s", out)
	}
	if got := strings.Count(out, "\n"); got < 35 {
		t.Fatalf("table II too short: %d lines", got)
	}
}

// TestSystemRunnersAllModes runs every system workload once per
// mode/scenario at a tiny scale to prove the Table VI machinery works
// end to end.
func TestSystemRunnersAllModes(t *testing.T) {
	cfg := SystemConfig{MsgSize: 2 << 10, Messages: 4, PiSamples: 2_000, Jobs: 1}
	for _, sys := range Systems() {
		for _, sc := range []Scenario{SDT, SIM} {
			for _, mode := range modes {
				name := sys.Name + "/" + sc.String() + "/" + mode.String()
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					st, err := sys.Run(mode, sc, cfg, t.TempDir())
					if err != nil {
						t.Fatal(err)
					}
					if st.Duration <= 0 {
						t.Fatal("no duration measured")
					}
					if mode == tracker.ModeDista && st.WireBytes <= st.DataBytes {
						t.Fatalf("dista wire bytes %d must exceed data bytes %d", st.WireBytes, st.DataBytes)
					}
					if mode != tracker.ModeDista && st.GlobalTaints != 0 {
						t.Fatalf("%s registered %d global taints", mode, st.GlobalTaints)
					}
				})
			}
		}
	}
}

// TestGlobalTaintCounts is experiment E6: under DisTA, SIM scenarios
// register many more global taints than SDT scenarios, matching the
// §V-F analysis (paper: SDT 1-6, SIM 54-327).
func TestGlobalTaintCounts(t *testing.T) {
	cfg := SystemConfig{MsgSize: 1 << 10, Messages: 12, PiSamples: 2_000, Jobs: 2}
	for _, sys := range Systems() {
		t.Run(sys.Name, func(t *testing.T) {
			t.Parallel()
			sdt, err := sys.Run(tracker.ModeDista, SDT, cfg, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			sim, err := sys.Run(tracker.ModeDista, SIM, cfg, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if sdt.GlobalTaints == 0 {
				t.Fatal("SDT run registered no global taints")
			}
			if sdt.GlobalTaints > 6 {
				t.Fatalf("SDT global taints = %d, paper range is 1-6", sdt.GlobalTaints)
			}
			if sim.GlobalTaints <= sdt.GlobalTaints {
				t.Fatalf("SIM (%d) must register more global taints than SDT (%d)",
					sim.GlobalTaints, sdt.GlobalTaints)
			}
		})
	}
}

// TestSIMMemoDensity measures what the clients' page-table memo depends
// on (DESIGN §8): the share of a partition's sequence a node comes to
// hold. In the five systems' SIM runs every node that holds ids at all
// holds at least a third of those below its highest — the point under
// which a hash map would be the smaller memo. A system that lands below
// is the sparse client §8 prices, and the reason to look at it again.
func TestSIMMemoDensity(t *testing.T) {
	cfg := SystemConfig{MsgSize: 1 << 10, Messages: 200, PiSamples: 1_000, Jobs: 20}
	for _, sys := range Systems() {
		t.Run(sys.Name, func(t *testing.T) {
			t.Parallel()
			st, err := sys.Run(tracker.ModeDista, SIM, cfg, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			holding := 0
			for _, m := range st.Memos {
				if m.IDs == 0 {
					continue
				}
				holding++
				t.Logf("a node holds %d of %d ids (%d global)", m.IDs, m.Span, st.GlobalTaints)
				if 3*m.IDs < m.Span {
					t.Errorf("a node holds %d ids of the %d below its highest: under one in three", m.IDs, m.Span)
				}
			}
			if holding < 2 {
				t.Fatalf("%d nodes hold ids, want the two ends of a transfer at least", holding)
			}
		})
	}
}

func TestMeasureSystemsAndTableVI(t *testing.T) {
	cfg := SystemConfig{MsgSize: 1 << 10, Messages: 3, PiSamples: 1_000, Jobs: 1}
	rows, err := MeasureSystems(cfg, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	var buf bytes.Buffer
	WriteTableVI(&buf, rows)
	out := buf.String()
	for _, want := range []string{"TABLE VI", "ZooKeeper", "HBase+ZooKeeper", "Average"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	buf.Reset()
	WriteTaintCounts(&buf, rows)
	if !strings.Contains(buf.String(), "SDT range") {
		t.Fatalf("taint count output:\n%s", buf.String())
	}
}
