package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metricDef names one reported metric and its unit; BENCHMARK.json lists
// the same names and units.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports for every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ingest_p50_ms", "ms"},
	{"query_p50_ms", "ms"},
	{"rss_mb", "MB"},
}

// perLayer are the metrics a traced run reports for every workload. The
// first five are end-to-end measurements whose run-to-run spread on the
// calibration box is wider than any bound the benchmark may set, so they
// are reported here, ungated (README.md "Calibration").
var perLayer = []metricDef{
	{"ingest_p99_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"peak_eps", "events/s"},
	{"peak_qps", "queries/s"},
	{"recover_s", "s"},
	{"substrate.ingest_ns_per_event.gmp1", "ns/event"},
	{"substrate.ingest_ns_per_event.gmp2", "ns/event"},
	{"substrate.ingest_allocs_per_batch", "allocs/batch"},
	{"parallel.ingest_ns_per_event.gmp1", "ns/event"},
	{"parallel.ingest_ns_per_event.gmp2", "ns/event"},
	{"parallel.ingest_allocs_per_batch", "allocs/batch"},
	{"parallel.sample_p50_us.gmp1", "us"},
	{"parallel.sample_p50_us.gmp2", "us"},
	{"parallel.sample_p99_us.gmp1", "us"},
	{"parallel.sample_p99_us.gmp2", "us"},
	{"parallel.weight_us", "us"},
	{"serve.instance.ingest_ns_per_event.gmp1", "ns/event"},
	{"serve.instance.ingest_ns_per_event.gmp2", "ns/event"},
	{"serve.instance.ingest_p50_us", "us"},
	{"serve.instance.ingest_p99_us", "us"},
	{"serve.instance.refused_ratio", "fraction"},
	{"serve.instance.sample_us", "us"},
	{"serve.instance.weight_us", "us"},
	{"serve.statedir.ingest_ns_per_event", "ns/event"},
	{"serve.statedir.wal_bytes_per_event", "bytes/event"},
	{"serve.statedir.recover_ns_per_event", "ns/event"},
	{"serve.statedir.snapshot_ms", "ms"},
	{"serve.statedir.snapshot_bytes", "bytes"},
	{"serve.handler.ingest_json_ns_per_event.gmp1", "ns/event"},
	{"serve.handler.ingest_json_ns_per_event.gmp2", "ns/event"},
	{"serve.handler.ingest_ndjson_ns_per_event.gmp1", "ns/event"},
	{"serve.handler.ingest_ndjson_ns_per_event.gmp2", "ns/event"},
	{"serve.handler.ingest_json_allocs_per_batch", "allocs/batch"},
	{"serve.handler.ingest_ndjson_allocs_per_batch", "allocs/batch"},
	{"serve.handler.sample_us", "us"},
	{"serve.handler.weight_us", "us"},
	{"serve.fabric.ingest_ns_per_batch.gmp1", "ns/batch"},
	{"serve.fabric.ingest_ns_per_batch.gmp2", "ns/batch"},
	{"serve.fabric.first_arrival_us", "us"},
	{"serve.fabric.sample_us", "us"},
	{"serve.fabric.bytes_per_tenant", "bytes"},
	{"http.ingest_rtt_p50_us", "us"},
	{"http.query_rtt_p50_us", "us"},
	{"gen.late_p99_ms", "ms"},
	{"gen.inflight_max", "count"},
}

// metricLine is one printed metric. n, when set, is the sample count behind
// a percentile or median.
type metricLine struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	N        int     `json:"n,omitempty"`
}

// report prints metrics as they are measured and collects the run's
// verdict: failed checks, attempted and failed operations.
type report struct {
	out       io.Writer
	lines     []metricLine
	problems  []string
	attempted int
	failed    int
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}

// metric records a metric from the endToEnd or perLayer tables.
func (r *report) metric(workload, name string, v float64, n int) {
	r.emit(metricLine{Workload: workload, Metric: name, Value: v, Unit: unitOf(name), N: n})
}

// info records a figure printed for the reader but not part of the
// benchmark's metric set.
func (r *report) info(workload, name string, v float64, unit string, n int) {
	r.emit(metricLine{Workload: workload, Metric: name, Value: v, Unit: unit, N: n})
}

func (r *report) emit(l metricLine) {
	r.lines = append(r.lines, l)
	b, _ := json.Marshal(l) // a struct of strings and finite numbers always encodes
	fmt.Fprintln(r.out, string(b))
}

// problem records a failed output check; the run then exits non-zero.
func (r *report) problem(workload, format string, args ...any) {
	msg := workload + ": " + fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	fmt.Fprintln(r.out, "CHECK FAILED", msg)
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of the output: every metric of the chosen set,
// keyed by name (or by workload/name when several workloads ran).
func (r *report) summary(workloads []string, defs []metricDef) ([]byte, error) {
	metrics := make(map[string]resultValue)
	for _, w := range workloads {
		for _, d := range defs {
			key := d.name
			if len(workloads) > 1 {
				key = w + "/" + d.name
			}
			found := false
			for _, l := range r.lines {
				if l.Workload == w && l.Metric == d.name {
					metrics[key] = resultValue{l.Value, l.Unit}
					found = true
				}
			}
			if !found {
				r.problem(w, "metric %s was not measured", d.name)
			}
		}
	}
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]resultValue `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, metrics}
	return json.Marshal(out)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
