package bench

import (
	"strings"
	"testing"

	"dista/internal/core/tracker"
	"dista/internal/taintmap"
)

func TestScenarioString(t *testing.T) {
	if SDT.String() != "SDT" || SIM.String() != "SIM" {
		t.Fatal("scenario spellings")
	}
	if !strings.Contains(Scenario(9).String(), "9") {
		t.Fatal("unknown scenario")
	}
}

// TestSystemRunnersAllModes runs every system workload once per
// mode/scenario at a tiny scale to prove the Table VI machinery works
// end to end.
func TestSystemRunnersAllModes(t *testing.T) {
	cfg := SystemConfig{MsgSize: 2 << 10, Messages: 4, PiSamples: 2_000, Jobs: 1}
	for _, sys := range Systems() {
		for _, sc := range []Scenario{SDT, SIM} {
			for _, mode := range []tracker.Mode{tracker.ModeOff, tracker.ModePhosphor, tracker.ModeDista} {
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
// §V-F analysis (paper: SDT 1-6, SIM 54-327). With -v it logs each
// system's two counts.
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
			t.Logf("%s global taints: SDT %d, SIM %d", sys.Name, sdt.GlobalTaints, sim.GlobalTaints)
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
// hold. In the five systems' SIM runs every node that holds more ids
// than one memo page has slots holds at least a third of those below its
// highest — the point under which a hash map would be the smaller memo.
// A system that lands below is the sparse client §8 prices, and the
// reason to look at it again. A node that holds a page's worth or fewer
// pays the memo's fixed group table and at most a page per id however
// they spread, and a map is smaller there at any density: since streams
// register fresh taints in batches (tracker.Agent.Defer), such a node's
// few ids come late in the sequence, and only the registering end of a
// transfer holds them — the receiving end learns a fresh taint under a
// stream-scoped id, which no memo keeps.
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
				if m.IDs > taintmap.MemoPageLen && 3*m.IDs < m.Span {
					t.Errorf("a node holds %d ids of the %d below its highest: under one in three", m.IDs, m.Span)
				}
			}
			if holding < 1 {
				t.Fatal("no node holds ids, want the registering end of a transfer at least")
			}
		})
	}
}
