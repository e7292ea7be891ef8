// Command swserve serves sliding-window samplers over HTTP: the library's
// substrates behind internal/serve's named-sampler registry, a batched
// JSON/NDJSON ingest endpoint and concurrent query endpoints. It is the
// serving-system shape the ROADMAP's north star calls for — samplers are
// long-lived in-memory state; clients ingest and query over the network.
//
// Usage:
//
//	swserve -addr :8080 -mode ts -sampler sharded-weighted-ts-wor -t0 60 -g 4 -k 10
//
// registers one sampler (named by -name, default "default") built exactly
// like cmd/swsample's substrate selection; further samplers can be added at
// runtime with POST /samplers. Endpoints:
//
//	GET  /healthz            liveness
//	GET  /samplers           list registered samplers
//	POST /samplers           {"name":..., "spec":{mode,sampler,n,t0,k,g,seed,weight}}
//	POST /ingest/{name}      {"values":[...],"timestamps":[...],"weights":[...]}
//	                         or NDJSON {"value":...,"ts":...,"weight":...} lines
//	GET  /sample/{name}      current sample                [?at=<ts>]
//	GET  /size/{name}        (1±5%) window-size oracle     [?at=<ts>]
//	GET  /weight/{name}      (1±5%) active-weight oracle   [?at=<ts>]
//	GET  /subsetsum/{name}   subset-sum estimate           [?at=&prefix=&contains=]
//
// With -fabric the initial registration is a multi-tenant FABRIC instead of
// a single sampler: per-tenant samplers are stamped out lazily from the
// spec on first ingest (DESIGN.md §9), capped at -max-tenants, under
// /tenant/{fabric}/{tenant-id}/{ingest,sample,size,subsetsum}; more
// fabrics can be added at runtime with POST /fabrics.
//
// With -state-dir the registry is DURABLE (DESIGN.md §10): each instance
// keeps a binary snapshot plus an NDJSON ingest WAL in the directory, the
// WAL is appended before a batch is acknowledged, snapshots are rewritten
// every -snapshot-interval and at shutdown, and a restart restores the
// snapshots and replays the uncovered WAL tails before serving — a
// recovered sampler resumes the exact random stream it was killed in.
// Snapshots can also be taken and shipped over the wire with
// POST /snapshot/{name} and POST /restore/{name}.
//
// -pprof exposes net/http/pprof under /debug/pprof/ (off by default —
// profiling endpoints are an information leak on an open port; never
// served in smoke mode). Tenant-scale memory profiles are then one
// `go tool pprof .../debug/pprof/heap` away.
//
// On SIGINT/SIGTERM the server shuts down gracefully: in-flight requests
// finish, then every sampler drains its dispatcher barrier before its
// shard goroutines stop.
//
// -smoke runs a fixed, seeded ingest/query scenario against an in-process
// listener and prints every response; with -golden FILE the output is
// compared against the file instead (exit 1 on drift). `make serve-smoke`
// wires this into CI with no external tooling.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"slidingsample/internal/serve"
	"slidingsample/internal/substrate"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		name    = flag.String("name", "default", "name of the initially registered sampler")
		mode    = flag.String("mode", "seq", "window mode of the initial sampler: seq or ts")
		sampler = flag.String("sampler", "wor", "substrate of the initial sampler (swsample vocabulary; see doc comment)")
		n       = flag.Uint64("n", 1000, "sequence window size (mode=seq)")
		t0      = flag.Int64("t0", 60, "timestamp horizon in ticks (mode=ts)")
		k       = flag.Int("k", 5, "sample size")
		g       = flag.Int("g", 4, "shard count (sharded-* samplers)")
		seed    = flag.Uint64("seed", 0, "seed for reproducible sampling (0: random)")
		wfield  = flag.Int("wfield", -1, "0-based whitespace field holding the weight (weighted-* samplers; -1: value byte length)")
		smoke   = flag.Bool("smoke", false, "run the fixed smoke scenario against an in-process server and exit")
		golden  = flag.String("golden", "", "with -smoke: compare output against this golden file instead of printing")

		stateDir     = flag.String("state-dir", "", "durability directory: snapshots + ingest WALs; instances found there are recovered on start")
		snapInterval = flag.Duration("snapshot-interval", 30*time.Second, "with -state-dir: periodic snapshot cadence (0: only on shutdown)")

		fabric     = flag.Bool("fabric", false, "register the initial spec as a multi-tenant fabric instead of a single sampler")
		maxTenants = flag.Int("max-tenants", 0, "with -fabric: tenant budget (0: serve.DefaultMaxTenants)")
		pprofOn    = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (never in smoke mode)")

		defaults          = serve.DefaultHTTPTimeouts()
		readHeaderTimeout = flag.Duration("read-header-timeout", defaults.ReadHeaderTimeout, "bound on reading a request's headers (slowloris protection)")
		readTimeout       = flag.Duration("read-timeout", defaults.ReadTimeout, "bound on reading a whole request, body included")
		idleTimeout       = flag.Duration("idle-timeout", defaults.IdleTimeout, "bound on an idle keep-alive connection")
		maxHeaderBytes    = flag.Int("max-header-bytes", defaults.MaxHeaderBytes, "bound on a request's header size")
	)
	flag.Parse()

	if *smoke {
		if err := runSmoke(*golden); err != nil {
			fmt.Fprintln(os.Stderr, "swserve:", err)
			os.Exit(1)
		}
		return
	}

	spec := serve.Spec{
		Mode: *mode, Sampler: *sampler,
		N: *n, T0: *t0, K: *k, G: *g,
		Seed: *seed, Weight: substrate.WeightSelector(*wfield),
	}
	registry := serve.NewServer()
	var sd *serve.StateDir
	if *stateDir != "" {
		var err error
		sd, err = serve.OpenStateDir(*stateDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "swserve:", err)
			os.Exit(1)
		}
		recovered, err := sd.Recover(registry)
		if err != nil {
			fmt.Fprintln(os.Stderr, "swserve:", err)
			os.Exit(1)
		}
		if len(recovered) > 0 {
			fmt.Fprintf(os.Stderr, "swserve: recovered %d sampler(s) from %s: %v\n", len(recovered), *stateDir, recovered)
		}
		registry.SetStateDir(sd)
	}
	if _, already := registry.Get(*name); already && !*fabric {
		fmt.Fprintf(os.Stderr, "swserve: resuming recovered %q on %s\n", *name, *addr)
	} else if *fabric {
		f, err := registry.RegisterFabric(*name, spec, *maxTenants)
		if err != nil {
			fmt.Fprintln(os.Stderr, "swserve:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "swserve: serving fabric %q (%s/%s, base seed %d, max %d tenants) on %s\n",
			*name, spec.Mode, spec.Sampler, f.Spec().Seed, f.MaxTenants(), *addr)
	} else {
		inst, err := registry.Register(*name, spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "swserve:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "swserve: serving %q (%s/%s, seed %d) on %s\n",
			*name, spec.Mode, spec.Sampler, inst.Spec().Seed, *addr)
	}

	httpSrv := serve.NewHTTPServer(*addr, buildHandler(registry, *pprofOn), serve.HTTPTimeouts{
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		IdleTimeout:       *idleTimeout,
		MaxHeaderBytes:    *maxHeaderBytes,
	})
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if sd != nil && *snapInterval > 0 {
		ticker := time.NewTicker(*snapInterval)
		defer ticker.Stop()
		go func() {
			for range ticker.C {
				if err := sd.SnapshotAll(); err != nil {
					fmt.Fprintln(os.Stderr, "swserve: snapshot:", err)
				}
			}
		}()
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "swserve:", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		// Graceful shutdown: finish in-flight requests, THEN drain every
		// sampler (final dispatcher barrier) and stop the shard workers —
		// the order matters, a handler mid-flight must never observe a
		// closing dispatcher.
		fmt.Fprintln(os.Stderr, "swserve: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintln(os.Stderr, "swserve: shutdown:", err)
		}
		registry.Close()
		// A final snapshot after the drain: on a clean shutdown the WAL
		// tail is empty and restart resumes without replay.
		if sd != nil {
			if err := sd.SnapshotAll(); err != nil {
				fmt.Fprintln(os.Stderr, "swserve: snapshot:", err)
			}
		}
	}
}
