package serve

// coverage_test.go: the exhaustive registration sweep. Every (mode,
// sampler) pair the internal/substrate registry accepts must register
// through this layer, take a batch, and answer its natural query — the
// wiring the substratecov analyzer cross-checks statically (a substrate
// name missing from this package fails `make lint`).

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// substrateSweep lists every registrable substrate. est marks the
// subset-sum estimators, which answer /subsetsum instead of /sample.
var substrateSweep = []struct {
	mode, sampler string
	est           bool
}{
	{"seq", "wor", false},
	{"seq", "wr", false},
	{"seq", "chain", false},
	{"seq", "oversample", false},
	{"seq", "fullwindow", false},
	{"seq", "sharded-wr", false},
	{"seq", "weighted-wor", false},
	{"seq", "weighted-wr", false},
	{"seq", "sharded-weighted-wor", false},
	{"seq", "sharded-weighted-wr", false},
	{"seq", "subsetsum", true},
	{"ts", "wor", false},
	{"ts", "wr", false},
	{"ts", "priority", false},
	{"ts", "skyband", false},
	{"ts", "fullwindow", false},
	{"ts", "sharded-wr", false},
	{"ts", "sharded-wor", false},
	{"ts", "weighted-ts-wor", false},
	{"ts", "weighted-ts-wr", false},
	{"ts", "sharded-weighted-ts-wor", false},
	{"ts", "sharded-weighted-ts-wr", false},
	{"ts", "subsetsum-ts", true},
	{"ts", "sharded-subsetsum-ts", true},
}

func TestRegisterEverySubstrate(t *testing.T) {
	s := NewServer()
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })

	for i, row := range substrateSweep {
		name := row.mode + "-" + strings.ReplaceAll(row.sampler, "-", "")
		t.Run(row.mode+"/"+row.sampler, func(t *testing.T) {
			spec := Spec{Mode: row.mode, Sampler: row.sampler, K: 4, G: 2, Seed: uint64(i) + 1}
			if row.mode == "seq" {
				spec.N = 64
			} else {
				spec.T0 = 60
			}
			inst, err := s.Register(name, spec)
			if err != nil {
				t.Fatalf("register %s/%s: %v", row.mode, row.sampler, err)
			}
			// A fresh sampler's peak already covers its empty footprint.
			if _, _, words, maxWords := inst.Stats(); maxWords < words {
				t.Fatalf("fresh sampler: MaxWords %d < Words %d", maxWords, words)
			}

			// A small batch: timestamps only in ts mode (three per tick).
			var body strings.Builder
			body.WriteString(`{"values":[`)
			for j := 0; j < 12; j++ {
				if j > 0 {
					body.WriteByte(',')
				}
				fmt.Fprintf(&body, "%q", fmt.Sprintf("v%d", j))
			}
			body.WriteString(`]`)
			if row.mode == "ts" {
				body.WriteString(`,"timestamps":[`)
				for j := 0; j < 12; j++ {
					if j > 0 {
						body.WriteByte(',')
					}
					fmt.Fprintf(&body, "%d", j/3)
				}
				body.WriteString(`]`)
			}
			body.WriteString(`}`)
			code, resp := post(t, ts.URL+"/ingest/"+name, body.String())
			wantStatus(t, code, http.StatusOK, resp)

			query := "/sample/"
			if row.est {
				query = "/subsetsum/"
			}
			code, resp = get(t, ts.URL+query+name)
			wantStatus(t, code, http.StatusOK, resp)
			if row.est {
				var got SubsetSumResponse
				if err := json.Unmarshal([]byte(resp), &got); err != nil {
					t.Fatalf("bad /subsetsum body %q: %v", resp, err)
				}
				if !got.OK || got.Estimate <= 0 {
					t.Fatalf("estimate not positive after ingest: %+v", got)
				}
			} else {
				var got SampleResponse
				if err := json.Unmarshal([]byte(resp), &got); err != nil {
					t.Fatalf("bad /sample body %q: %v", resp, err)
				}
				// oversample may legitimately fail; everyone else samples.
				if !got.OK && row.sampler != "oversample" {
					t.Fatalf("no sample after ingest: %+v", got)
				}
			}
		})
	}
}
