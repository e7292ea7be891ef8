package serve

// Golden snapshot fixtures: one committed .snap file per substrate,
// produced from a fixed seed and a fixed ingest prefix. They pin the
// on-disk format from both sides —
//
//   - encoder stability: re-encoding the same seeded stream today must
//     reproduce the committed bytes exactly, so an accidental format
//     change fails here before it strands anyone's state directory;
//   - decoder compatibility: the committed bytes (written by whatever
//     commit last regenerated them) must still restore into an instance
//     that resumes identically to an uninterrupted twin.
//
// After an INTENDED format change, bump snap.Version and regenerate:
//
//	go test ./internal/serve/ -run TestGoldenSnapshots -update

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden snapshot fixtures in testdata/")

// queryTranscript runs the full read surface in a fixed order and
// renders every result — values, ok flags, AND errors (capability gaps
// must match too). Footprint stats come last so both twins' query caches
// are equally warm when Words is accounted.
func queryTranscript(t *testing.T, inst *Instance) string {
	t.Helper()
	var b strings.Builder
	sample, ok, err := inst.Sample(nil)
	fmt.Fprintf(&b, "sample %v %v %v\n", sample, ok, err)
	size, err := inst.Size(nil)
	fmt.Fprintf(&b, "size %d %v\n", size, err)
	wt, err := inst.Weight(nil)
	fmt.Fprintf(&b, "weight %v %v\n", wt, err)
	sum, ok, err := inst.SubsetSum(nil, func(v string) bool { return strings.HasSuffix(v, "1 extra") })
	fmt.Fprintf(&b, "subsetsum %v %v %v\n", sum, ok, err)
	count, k, words, maxWords := inst.Stats()
	fmt.Fprintf(&b, "stats %d %d %d %d\n", count, k, words, maxWords)
	return b.String()
}

func TestGoldenSnapshots(t *testing.T) {
	for _, spec := range fuzzSpecs() {
		t.Run(spec.Mode+"/"+spec.Sampler, func(t *testing.T) {
			data := seedSnapshot(t, spec)
			path := filepath.Join("testdata", spec.Mode+"-"+spec.Sampler+".snap")
			if *updateGolden {
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden fixture (regenerate with -update): %v", err)
			}
			if !bytes.Equal(data, want) {
				t.Fatalf("snapshot encoding drifted from %s (%d bytes, want %d): if intended, bump snap.Version and regenerate with -update",
					path, len(data), len(want))
			}

			restored, events, err := RestoreInstance(bytes.NewReader(want))
			if err != nil {
				t.Fatalf("restore %s: %v", path, err)
			}
			defer restored.Close()
			if events != seedEvents {
				t.Fatalf("fixture covers %d events, want %d", events, seedEvents)
			}

			// The fixture must RESUME, not just load: ingest a fresh tail
			// into the restored instance and an uninterrupted twin, and
			// require identical query transcripts.
			s := NewServer()
			defer s.Close()
			twin, err := s.Register("twin", spec)
			if err != nil {
				t.Fatal(err)
			}
			seedIngest(t, twin, 0, seedEvents)
			seedIngest(t, twin, seedEvents, 16)
			seedIngest(t, restored, seedEvents, 16)
			if got, wantT := queryTranscript(t, restored), queryTranscript(t, twin); got != wantT {
				t.Fatalf("restored fixture diverged from uninterrupted twin:\n--- restored\n%s--- twin\n%s", got, wantT)
			}
		})
	}
}
