package substrate

import (
	"fmt"
	"io"

	"slidingsample/internal/apps"
	"slidingsample/internal/baseline"
	"slidingsample/internal/core"
	"slidingsample/internal/parallel"
	"slidingsample/internal/snap"
	"slidingsample/internal/weighted"
)

// kindInstance heads a spec-carrying substrate snapshot: the spec rides
// in front of the sampler body so Restore can re-resolve the constructor
// vocabulary — and re-bind the weight function — by NAME, exactly the way
// New resolves it. The sampler body that follows is the substrate's own
// full snapshot (its own magic+version+kind header included), so a
// snapshot restored against a tampered spec fails on the inner kind
// check rather than decoding garbage.
const kindInstance = "substrate.Instance"

// snapshotter is the capability every servable substrate implements.
type snapshotter interface {
	Snapshot(w io.Writer) error
}

func encodeSpec(w *snap.Writer, spec Spec) {
	w.String(spec.Mode)
	w.String(spec.Sampler)
	w.U64(spec.N)
	w.I64(spec.T0)
	w.Int(spec.K)
	w.Int(spec.G)
	w.U64(spec.Seed)
	w.String(spec.Weight)
}

func decodeSpec(r *snap.Reader) Spec {
	return Spec{
		Mode:    r.String(),
		Sampler: r.String(),
		N:       r.U64(),
		T0:      r.I64(),
		K:       r.Int(),
		G:       r.Int(),
		Seed:    r.U64(),
		Weight:  r.String(),
	}
}

// Snapshot writes a spec-headed snapshot of a substrate built by New for
// that spec. Sharded substrates drain an ingest barrier inside their own
// Snapshot, so callers only need the usual single-producer discipline.
func Snapshot(w io.Writer, spec Spec, built any) error {
	s, ok := built.(snapshotter)
	if !ok {
		return fmt.Errorf("substrate: %T does not support snapshots", built)
	}
	if err := snap.Save(w, kindInstance, spec, encodeSpec); err != nil {
		return err
	}
	return s.Snapshot(w)
}

// Restore reads a spec-headed snapshot, re-resolves the named substrate
// (and its weight function) through the same vocabulary as New, and
// rebuilds the sampler mid-stream: the restored instance resumes
// bit-identically to the one that was snapshotted. It returns the spec
// alongside the substrate so callers can re-register capabilities.
//
// check vets the decoded spec before any of the body is read (a server
// applies its caps there, so an over-cap spec allocates and starts
// nothing); its refusal wraps snap.ErrFormat. A substrate refused after
// its body decoded is closed before Restore returns.
func Restore(r io.Reader, check func(Spec) error) (Spec, any, error) {
	spec, err := snap.Restore(r, kindInstance, decodeSpec)
	if err != nil {
		return Spec{}, nil, err
	}
	if err := spec.Validate(); err != nil {
		return Spec{}, nil, fmt.Errorf("%w: %v", snap.ErrFormat, err)
	}
	if err := check(spec); err != nil {
		return Spec{}, nil, fmt.Errorf("%w: %v", snap.ErrFormat, err)
	}
	weight, err := WeightFunc(spec.Weight)
	if err != nil {
		return Spec{}, nil, fmt.Errorf("%w: %v", snap.ErrFormat, err)
	}
	var built any
	switch spec.Mode {
	case "seq":
		switch spec.Sampler {
		case "wor":
			built, err = core.RestoreSeqWOR[string](r)
		case "wr":
			built, err = core.RestoreSeqWR[string](r)
		case "chain":
			built, err = baseline.RestoreChain[string](r)
		case "oversample":
			built, err = baseline.RestoreOversample[string](r)
		case "fullwindow":
			built, err = baseline.RestoreFullWindow[string](r)
		case "sharded-wr":
			built, err = parallel.RestoreShardedSeqWR[string](r)
		case "weighted-wor":
			built, err = weighted.RestoreWOR(r, weight)
		case "weighted-wr":
			built, err = weighted.RestoreWR(r, weight)
		case "sharded-weighted-wor":
			built, err = parallel.RestoreShardedWeightedSeqWOR(r, weight)
		case "sharded-weighted-wr":
			built, err = parallel.RestoreShardedWeightedSeqWR(r, weight)
		case "subsetsum":
			built, err = apps.RestoreSubsetSum(r, weight)
		default:
			return Spec{}, nil, snap.Errorf("substrate: unknown seq sampler %q", spec.Sampler)
		}
	case "ts":
		switch spec.Sampler {
		case "wor":
			built, err = core.RestoreTSWOR[string](r)
		case "wr":
			built, err = core.RestoreTSWR[string](r)
		case "priority":
			built, err = baseline.RestorePriority[string](r)
		case "skyband":
			built, err = baseline.RestoreSkyband[string](r)
		case "fullwindow":
			built, err = baseline.RestoreFullWindow[string](r)
		case "sharded-wr":
			built, err = parallel.RestoreShardedTSWR[string](r)
		case "sharded-wor":
			built, err = parallel.RestoreShardedTSWOR[string](r)
		case "weighted-ts-wor":
			built, err = weighted.RestoreTSWOR(r, weight)
		case "weighted-ts-wr":
			built, err = weighted.RestoreTSWR(r, weight)
		case "sharded-weighted-ts-wor":
			built, err = parallel.RestoreShardedWeightedTSWOR(r, weight)
		case "sharded-weighted-ts-wr":
			built, err = parallel.RestoreShardedWeightedTSWR(r, weight)
		case "subsetsum-ts":
			built, err = apps.RestoreSubsetSumTS(r, weight)
		case "sharded-subsetsum-ts":
			built, err = apps.RestoreShardedSubsetSumTS(r, weight)
		default:
			return Spec{}, nil, snap.Errorf("substrate: unknown ts sampler %q", spec.Sampler)
		}
	}
	if err != nil {
		return Spec{}, nil, err
	}
	// Every substrate reports its sample-size parameter; a spec/body
	// mismatch means a spliced or tampered snapshot.
	if kg, ok := built.(interface{ K() int }); ok && kg.K() != spec.K {
		if c, ok := built.(interface{ Close() }); ok {
			c.Close()
		}
		return Spec{}, nil, snap.Errorf("substrate: snapshot k %d does not match spec k %d", kg.K(), spec.K)
	}
	return spec, built, nil
}
