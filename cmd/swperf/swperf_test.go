package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile is the part of the repository's BENCHMARK.json the smoke
// test checks the program against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload untraced and then traced at 1% scale with
// every output check on, and requires each metric BENCHMARK.json names to
// be printed for each workload with its unit.
func TestSmoke(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkFile
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads; swperf runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, swperf runs %q", i, w.Name, workloads[i].name)
		}
	}

	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	for _, tc := range []struct {
		trace string
		want  []metricDef
	}{
		{"0", defsOf(spec.EndToEnd)},
		{tracePath, defsOf(spec.PerLayer)},
	} {
		var out, errOut bytes.Buffer
		args := []string{"-scale", "0.01", "-seed", "3", "-trace", tc.trace, "-root", root, "-build-dir", dir}
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("swperf %v exited %d\nstdout:\n%s\nstderr:\n%s", args, code, out.String(), errOut.String())
		}
		printed := make(map[[2]string]string) // (workload, metric) -> unit
		sc := bufio.NewScanner(&out)
		for sc.Scan() {
			var l metricLine
			if json.Unmarshal(sc.Bytes(), &l) == nil && l.Metric != "" {
				printed[[2]string{l.Workload, l.Metric}] = l.Unit
			}
		}
		for _, w := range spec.Workloads {
			for _, d := range tc.want {
				unit, ok := printed[[2]string{w.Name, d.name}]
				switch {
				case !ok:
					t.Errorf("trace %s: %s: metric %s not printed", tc.trace, w.Name, d.name)
				case unit != d.unit:
					t.Errorf("trace %s: %s: metric %s printed in %q, BENCHMARK.json says %q", tc.trace, w.Name, d.name, unit, d.unit)
				}
			}
		}
	}

	// The span file covers every layer, at GOMAXPROCS 1 and 2 where the
	// ladder has both rows.
	raw, err = os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	for _, s := range trace.Spans {
		names[s.Name] = true
	}
	for _, want := range []string{
		"substrate.ingest.gmp1", "substrate.ingest.gmp2",
		"parallel.ingest.gmp1", "parallel.ingest.gmp2", "parallel.sample.gmp1", "parallel.sample.gmp2",
		"serve.instance.ingest.gmp1", "serve.instance.ingest.gmp2",
		"serve.statedir.ingest", "serve.statedir.recover",
		"serve.handler.ingest_json.gmp1", "serve.handler.ingest_ndjson.gmp2",
		"serve.fabric.ingest.gmp1", "serve.fabric.ingest.gmp2",
		"e2e.nominal", "http.ingest", "http.query",
	} {
		if !names[want] {
			t.Errorf("trace has no %q span", want)
		}
	}
}

func defsOf(ms []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) []metricDef {
	out := make([]metricDef, len(ms))
	for i, m := range ms {
		out[i] = metricDef{m.Name, m.Unit}
	}
	return out
}

// TestMetricTablesMatchBenchmarkFile keeps the program's metric tables and
// BENCHMARK.json in step.
func TestMetricTablesMatchBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkFile
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind string
		file []metricDef
		code []metricDef
	}{
		{"end_to_end", defsOf(spec.EndToEnd), endToEnd},
		{"per_layer", defsOf(spec.PerLayer), perLayer},
	} {
		var file, code []string
		for _, d := range c.file {
			file = append(file, d.name+" "+d.unit)
		}
		for _, d := range c.code {
			code = append(code, d.name+" "+d.unit)
		}
		if strings.Join(file, "\n") != strings.Join(code, "\n") {
			t.Errorf("%s: BENCHMARK.json lists\n%s\nswperf reports\n%s", c.kind, strings.Join(file, "\n"), strings.Join(code, "\n"))
		}
	}
}
