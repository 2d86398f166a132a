package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// tiny shrinks a workload so a whole run takes about a second.
func tiny(w workload) workload {
	w.scale *= 0.1
	return w
}

type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range d.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range d.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func run(t *testing.T, cfg runConfig) (result, map[string]any) {
	t.Helper()
	res, info, err := execute(cfg, time.Now())
	if err != nil {
		t.Fatalf("%s trace=%v: %v", cfg.w.name, cfg.trace, err)
	}
	return res, info
}

// TestRunsRepeat runs every workload twice in each mode at tiny scale:
// digests and deterministic counts must repeat, every check must pass,
// and every emitted metric must be declared in BENCHMARK.json with its
// unit.
func TestRunsRepeat(t *testing.T) {
	endToEnd, perLayer := readDeclared(t)
	for _, w := range workloads {
		w := tiny(w)
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				var refs []any
				var counts []map[string]float64
				for i := 0; i < 2; i++ {
					cfg := runConfig{w: w, seed: 3, seconds: 3, trace: traced,
						traceOut: filepath.Join(t.TempDir(), "trace.json")}
					res, info := run(t, cfg)
					if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
						t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d failures=%v",
							traced, res.Correct, res.Attempted, res.Failed, info["failures"])
					}
					want := endToEnd
					if traced {
						want = perLayer
						checkChromeTrace(t, cfg.traceOut)
					}
					for name, m := range res.Metrics {
						if unit, ok := want[name]; !ok || unit != m.Unit {
							t.Errorf("trace=%v: metric %s (%s) is not declared with that unit", traced, name, m.Unit)
						}
					}
					refs = append(refs, info["reference"])
					c := map[string]float64{}
					for _, name := range []string{"matches_found_share", "matches_in_e_share", "ok_frac",
						"ranker.e_size", "blocker.c_size", "config.configs", "ranker.iterations"} {
						if m, ok := res.Metrics[name]; ok {
							c[name] = m.Value
						}
					}
					counts = append(counts, c)
				}
				if !reflect.DeepEqual(refs[0], refs[1]) {
					t.Errorf("trace=%v: reference differs between runs:\n%v\n%v", traced, refs[0], refs[1])
				}
				if !reflect.DeepEqual(counts[0], counts[1]) {
					t.Errorf("trace=%v: counts differ between runs:\n%v\n%v", traced, counts[0], counts[1])
				}
			}
		})
	}
}

func checkChromeTrace(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatalf("chrome trace: %v", err)
	}
	seen := map[string]bool{}
	for _, e := range tr.TraceEvents {
		seen[e.Name] = true
	}
	for _, name := range []string{"blocker.block", "config.generate", "ssjoin.corpus", "ssjoin.joinall",
		"ranker.prepare", "ranker.next", "client.join", "serve.join"} {
		if !seen[name] {
			t.Errorf("chrome trace has no %s span", name)
		}
	}
}

func TestIterMetricsNeedSamples(t *testing.T) {
	iters := func(n int) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = time.Duration(n-i) * time.Millisecond
		}
		return out
	}
	for _, tc := range []struct {
		n          int
		mean, tail bool
	}{
		{n: 19},
		{n: 20, mean: true},
		{n: 39, mean: true},
		{n: 40, mean: true, tail: true},
	} {
		got := iterMetrics(iters(tc.n))
		_, mean := got["iter_mean_ms"]
		_, tail := got["iter_top25_mean_ms"]
		if mean != tc.mean || tail != tc.tail {
			t.Errorf("%d rounds: iter_mean_ms present=%v, iter_top25_mean_ms present=%v; want %v, %v",
				tc.n, mean, tail, tc.mean, tc.tail)
		}
	}
	got := iterMetrics(iters(40))
	if got["iter_mean_ms"] != 20.5 || got["iter_top25_mean_ms"] != 35.5 {
		t.Errorf("rounds of 1..40 ms: mean %v, slowest-quarter mean %v; want 20.5, 35.5",
			got["iter_mean_ms"], got["iter_top25_mean_ms"])
	}
}

// TestServeErrorLowersOkFrac forces one served session into a refused
// request: the run must go on and report it through ok_frac and failed.
func TestServeErrorLowersOkFrac(t *testing.T) {
	w, _ := lookupWorkload("wa_serve")
	res, _ := run(t, runConfig{w: tiny(w), seed: 3, seconds: 0.5, faultAt: 1})
	if res.Correct || res.Failed != 1 || res.Attempted < 2 {
		t.Fatalf("correct=%v attempted=%d failed=%d; want one failed session of several",
			res.Correct, res.Attempted, res.Failed)
	}
	want := float64(res.Attempted-1) / float64(res.Attempted)
	if got := res.Metrics["ok_frac"].Value; got != want {
		t.Errorf("ok_frac = %v, want %v", got, want)
	}
}
