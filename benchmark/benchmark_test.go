package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// quickOptions is a -quick run, shorter still, writing under the test's
// own directory.
func quickOptions(t *testing.T) *options {
	return &options{
		seed: 1, seconds: 0.5, outDir: t.TempDir(),
		timeout: opTimeout, setups: 1, pairs: 1, quick: true,
	}
}

// manifest is BENCHMARK.json as the driver reads it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name, Unit, Better string
	Bound              *float64
}

func readManifest(t *testing.T) manifest {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestAgrees keeps BENCHMARK.json and the harness's own tables
// in step: workloads, run length, metric names, units, directions and
// bounds.
func TestManifestAgrees(t *testing.T) {
	m := readManifest(t)
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, harness default %d", m.RunSeconds, defaultSeconds)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), harness %q (%q)",
				i, m.Workloads[i].Name, m.Workloads[i].Why, w.name, w.why)
		}
	}
	check := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, harness %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || bounded && *g.Bound != d.bound {
				t.Errorf("%s %s: bound differs from the harness's %g", kind, d.name, d.bound)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
}

// TestSmoke runs every workload at a twentieth of its scale, end to end
// and per layer, and checks the line the driver reads: every metric
// BENCHMARK.json names is there once with its unit and a finite value,
// no ledger row is negative, and no op failed.
func TestSmoke(t *testing.T) {
	m := readManifest(t)
	o := quickOptions(t)
	for i := range workloads {
		for trace, want := range [][]manifestMetric{m.EndToEnd, m.PerLayer} {
			res, err := o.run(&workloads[i], trace)
			if err != nil {
				t.Fatal(err)
			}
			var line struct {
				Correct   bool
				Attempted int64
				Failed    int64
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(res.json()), &line); err != nil {
				t.Fatalf("%s trace %d: %v", res.workload, trace, err)
			}
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s trace %d: correct %v, %d of %d ops failed", res.workload, trace, line.Correct, line.Failed, line.Attempted)
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics printed, %d named", res.workload, trace, len(line.Metrics), len(want))
			}
			for _, d := range want {
				got, ok := line.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s: %s is not printed", res.workload, d.Name)
				case got.Unit != d.Unit:
					t.Errorf("%s: %s has unit %q, want %q", res.workload, d.Name, got.Unit, d.Unit)
				case !finite(res.m[d.Name]) || got.Value < 0:
					t.Errorf("%s: %s = %v", res.workload, d.Name, res.m[d.Name])
				case trace == 0 && got.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", res.workload, d.Name)
				}
			}
		}
	}
}

// TestCheckerCanFail shows that the verification is able to fail: with
// a responder that drops labels at the boundary (a ModePhosphor agent)
// or flips one payload byte, every tracked op fails; with the real
// stack none does.
func TestCheckerCanFail(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		if w.paper {
			continue
		}
		for _, tc := range []struct {
			name  string
			resp  responder
			share float64
		}{{"real", respReal, 0}, {"phosphor", respPhosphor, 1}, {"flip", respFlip, 1}} {
			t.Run(w.name+"/"+tc.name, func(t *testing.T) {
				o := quickOptions(t)
				o.seconds, o.resp = 0.1, tc.resp
				if tc.resp != respReal {
					o.timeout = 100 * time.Millisecond // a dropped label shows as a reply that never completes
				}
				m, err := o.measure(w, o.seconds)
				if err != nil {
					t.Fatal(err)
				}
				defer m.close()
				attempted, failed := m.distaCounts()
				if attempted == 0 || float64(failed)/float64(attempted) != tc.share {
					t.Errorf("%d of %d tracked ops failed, want a share of %g", failed, attempted, tc.share)
				}
				if off := sum(m.offSegs); off.failed != 0 || off.ops == 0 {
					t.Errorf("%d of %d untracked ops failed", off.failed, off.ops)
				}
			})
		}
	}
}

// TestHistQuantile pins the histogram against exact quantiles.
func TestHistQuantile(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100_000; v++ {
		h.record(v)
	}
	for _, q := range []float64{0.5, 0.99} {
		got, want := h.quantile(q), q*100_000
		if got < 0.98*want || got > 1.02*want {
			t.Errorf("quantile(%g) = %g, want about %g", q, got, want)
		}
	}
}
