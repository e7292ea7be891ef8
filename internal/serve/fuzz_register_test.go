package serve

// Registration fuzzing: whatever body arrives at POST /samplers or POST
// /fabrics, the answer is either a 201 with the new name then in the
// matching GET listing, or a 4xx with the listing unchanged — never a 5xx,
// never a panic. Explore beyond the seed corpus with:
//
//	go test -run '^$' -fuzz FuzzRegisterHandler ./internal/serve/

import (
	"bytes"
	"encoding/json"
	"net/http"
	"slices"
	"testing"
)

// listedNames returns the raw GET listing at path and the names in it.
func listedNames(t *testing.T, s *Server, path string) ([]byte, []string) {
	t.Helper()
	rec := serveRecorded(s, http.MethodGet, path, "application/json", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d (%s)", path, rec.Code, rec.Body)
	}
	var entries []struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &entries); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name
	}
	return rec.Body.Bytes(), names
}

func FuzzRegisterHandler(f *testing.F) {
	f.Add([]byte(freshRegisterBody), false)
	for _, body := range badRegisterBodies {
		f.Add([]byte(body), false)
	}
	fabrics := []FabricRegisterRequest{{Name: "fresh", Spec: fabricSpec, MaxTenants: 100}}
	for _, req := range badFabricRegistrations {
		fabrics = append(fabrics, req)
	}
	for _, req := range fabrics {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body, true)
	}
	f.Fuzz(func(t *testing.T, body []byte, fabric bool) {
		s := NewServer()
		// Close stops every instance and seals every fabric the input
		// registered, so shard goroutines do not pile up across inputs.
		defer s.Close()
		// One entry in each namespace, so duplicate names are reachable.
		if _, err := s.Register("seq", Spec{Mode: "seq", Sampler: "wor", N: 8, K: 2}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.RegisterFabric("fab", fabricSpec, 0); err != nil {
			t.Fatal(err)
		}
		path := "/samplers"
		if fabric {
			path = "/fabrics"
		}
		before, beforeNames := listedNames(t, s, path)
		rec := serveRecorded(s, http.MethodPost, path, "application/json", body)
		after, afterNames := listedNames(t, s, path)
		switch code := rec.Code; {
		case code == http.StatusCreated:
			var info struct {
				Name string `json:"name"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
				t.Fatalf("201 body %q: %v", rec.Body, err)
			}
			if slices.Contains(beforeNames, info.Name) || !slices.Contains(afterNames, info.Name) ||
				len(afterNames) != len(beforeNames)+1 {
				t.Fatalf("201 for %q but the listing went from %q to %q: %q", info.Name, beforeNames, afterNames, body)
			}
		case code >= 400 && code < 500:
			if !bytes.Equal(before, after) {
				t.Fatalf("%d but the listing changed from %s to %s: %q", code, before, after, body)
			}
		default:
			t.Fatalf("status %d (%s) for %q", code, rec.Body, body)
		}
	})
}
