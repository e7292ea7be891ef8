package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	"slidingsample/internal/slab"
	"slidingsample/internal/stream"
)

// Server is the registry plus its HTTP surface. Routes:
//
//	GET  /healthz            liveness
//	GET  /samplers           list registered samplers (name, spec, stats)
//	POST /samplers           register a sampler from a JSON {name, spec}
//	POST /ingest/{name}      batched ingest: JSON arrays or NDJSON records
//	GET  /sample/{name}      current sample            [?at=<ts>]
//	GET  /size/{name}        (1±ε) window size oracle  [?at=<ts>]
//	GET  /weight/{name}      (1±ε) weight total oracle [?at=<ts>]
//	GET  /subsetsum/{name}   HT subset-sum estimate    [?at=<ts>&prefix=&contains=]
//	POST /snapshot/{name}    stream the instance's binary snapshot (and persist
//	                         it when a state dir is attached)
//	POST /restore/{name}     register an instance from a snapshot body
//
// Multi-tenant fabric routes (DESIGN.md §9; tenants are created lazily on
// first ingest, and the fabric/sampler namespaces are independent):
//
//	GET  /fabrics                              list fabrics (name, spec, budget, live tenants)
//	POST /fabrics                              register a fabric from a JSON {name, spec, maxTenants}
//	POST /tenant/{fabric}/{id}/ingest          batched ingest, JSON or NDJSON
//	GET  /tenant/{fabric}/{id}/sample          tenant sample             [?at=<ts>]
//	GET  /tenant/{fabric}/{id}/size            tenant window size oracle [?at=<ts>]
//	GET  /tenant/{fabric}/{id}/subsetsum       tenant subset-sum         [?at=<ts>&prefix=&contains=]
//
// Close drains every instance (barrier, then shard shutdown) and seals
// every fabric — call it after the enclosing http.Server has finished its
// graceful Shutdown so no handler is mid-flight.
type Server struct {
	mu      sync.RWMutex
	inst    map[string]*Instance
	fabrics map[string]*Fabric
	mux     *http.ServeMux
	closed  bool

	// state, when set, makes registered and restored instances durable:
	// Register and POST /restore enable a WAL + snapshot file per instance
	// (DESIGN.md §10). Set it before the server takes traffic.
	state *StateDir
}

// NewServer returns an empty registry serving the routes above.
func NewServer() *Server {
	s := &Server{
		inst:    make(map[string]*Instance),
		fabrics: make(map[string]*Fabric),
		mux:     http.NewServeMux(),
	}
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	s.mux.HandleFunc("GET /samplers", s.handleList)
	s.mux.HandleFunc("POST /samplers", s.handleRegister)
	s.mux.HandleFunc("POST /ingest/{name}", s.handleIngest)
	s.mux.HandleFunc("GET /sample/{name}", s.handleSample)
	s.mux.HandleFunc("GET /size/{name}", s.handleSize)
	s.mux.HandleFunc("GET /weight/{name}", s.handleWeight)
	s.mux.HandleFunc("GET /subsetsum/{name}", s.handleSubsetSum)
	s.mux.HandleFunc("POST /snapshot/{name}", s.handleSnapshot)
	s.mux.HandleFunc("POST /restore/{name}", s.handleRestore)
	s.mux.HandleFunc("GET /fabrics", s.handleFabricList)
	s.mux.HandleFunc("POST /fabrics", s.handleFabricRegister)
	s.mux.HandleFunc("POST /tenant/{fabric}/{id}/ingest", s.handleTenantIngest)
	s.mux.HandleFunc("GET /tenant/{fabric}/{id}/sample", s.handleTenantSample)
	s.mux.HandleFunc("GET /tenant/{fabric}/{id}/size", s.handleTenantSize)
	s.mux.HandleFunc("GET /tenant/{fabric}/{id}/subsetsum", s.handleTenantSubsetSum)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Register builds the spec's substrate and adds it under name.
func (s *Server) Register(name string, spec Spec) (*Instance, error) {
	if name == "" || strings.ContainsAny(name, "/ \t\n") {
		return nil, fmt.Errorf("serve: sampler name must be non-empty without slashes or whitespace")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if _, dup := s.inst[name]; dup {
		return nil, ErrDuplicateName
	}
	inst, err := Build(spec)
	if err != nil {
		return nil, err
	}
	if s.state != nil {
		if err := s.state.Enable(name, inst); err != nil {
			inst.Close()
			return nil, err
		}
	}
	s.inst[name] = inst
	return inst, nil
}

// SetStateDir attaches a durability directory: instances registered (or
// restored over HTTP) afterwards get a WAL and snapshot file there. Call
// it after StateDir.Recover and before the server takes traffic.
func (s *Server) SetStateDir(sd *StateDir) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.state = sd
}

// stateDir returns the attached durability directory, if any.
func (s *Server) stateDir() *StateDir {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.state
}

// adopt inserts inst under name, first making it durable in sd when sd is
// non-nil. Both happen under the registry lock: the WAL is attached before
// any request can reach the instance (Enable's contract), and a name that
// is already taken is refused before Enable could truncate the live
// instance's WAL.
func (s *Server) adopt(name string, inst *Instance, sd *StateDir) error {
	if name == "" || strings.ContainsAny(name, "/ \t\n") {
		return fmt.Errorf("serve: sampler name must be non-empty without slashes or whitespace")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, dup := s.inst[name]; dup {
		return ErrDuplicateName
	}
	if sd != nil {
		if err := sd.Enable(name, inst); err != nil {
			return err
		}
	}
	s.inst[name] = inst
	return nil
}

// Get returns the named instance.
func (s *Server) Get(name string) (*Instance, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	inst, ok := s.inst[name]
	return inst, ok
}

// RegisterFabric builds the spec's fabric template and adds it under name.
// Fabric names share the samplers' naming rules but live in their own
// namespace (the routes never overlap).
func (s *Server) RegisterFabric(name string, spec Spec, maxTenants int) (*Fabric, error) {
	if name == "" || strings.ContainsAny(name, "/ \t\n") {
		return nil, fmt.Errorf("serve: fabric name must be non-empty without slashes or whitespace")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if _, dup := s.fabrics[name]; dup {
		return nil, ErrDuplicateName
	}
	f, err := NewFabric(spec, maxTenants)
	if err != nil {
		return nil, err
	}
	s.fabrics[name] = f
	return f, nil
}

// GetFabric returns the named fabric.
func (s *Server) GetFabric(name string) (*Fabric, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	f, ok := s.fabrics[name]
	return f, ok
}

// Close drains every registered instance — each takes a final barrier (so
// all dispatched elements are reflected in the shards) and then stops its
// shard goroutines — and seals every fabric. Instances and tenants stay
// queryable; ingest is refused afterwards.
func (s *Server) Close() {
	insts, fabs := s.seal()
	for _, f := range fabs {
		f.Close()
	}
	for _, in := range insts {
		in.Close()
	}
}

// seal marks the registry closed and snapshots the instances and fabrics
// under mu, so the (slow, instance-draining) Close calls run with the
// registry lock released. Returns nils when already closed.
func (s *Server) seal() ([]*Instance, []*Fabric) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, nil
	}
	s.closed = true
	insts := make([]*Instance, 0, len(s.inst))
	for _, in := range s.inst {
		insts = append(insts, in)
	}
	fabs := make([]*Fabric, 0, len(s.fabrics))
	for _, f := range s.fabrics {
		fabs = append(fabs, f)
	}
	return insts, fabs
}

// ---------------------------------------------------------------------------
// Wire types
// ---------------------------------------------------------------------------

// IngestRequest is the JSON batch body of POST /ingest/{name}. Timestamps
// are required in ts mode and must be omitted in seq mode; weights are
// optional and only accepted on substrates with a precomputed-weight path.
type IngestRequest struct {
	Values     []string  `json:"values"`
	Timestamps []int64   `json:"timestamps,omitempty"`
	Weights    []float64 `json:"weights,omitempty"`
}

// Record is one NDJSON ingest record (Content-Type: application/x-ndjson).
type Record struct {
	Value  string   `json:"value"`
	TS     *int64   `json:"ts,omitempty"`
	Weight *float64 `json:"weight,omitempty"`
}

// IngestResponse reports a successful batch.
type IngestResponse struct {
	Ingested int    `json:"ingested"`
	Count    uint64 `json:"count"`
}

// SampledElement is one sample entry on the wire.
type SampledElement struct {
	Value string `json:"value"`
	Index uint64 `json:"index"`
	TS    int64  `json:"ts"`
}

// SampleResponse answers GET /sample; OK is false while the window is
// empty (Sample is then absent).
type SampleResponse struct {
	OK     bool             `json:"ok"`
	Sample []SampledElement `json:"sample,omitempty"`
}

// SamplerInfo is one GET /samplers listing entry.
type SamplerInfo struct {
	Name     string `json:"name"`
	Spec     Spec   `json:"spec"`
	Count    uint64 `json:"count"`
	K        int    `json:"k"`
	Words    int    `json:"words"`
	MaxWords int    `json:"maxWords"`
}

// RegisterRequest is the POST /samplers body.
type RegisterRequest struct {
	Name string `json:"name"`
	Spec Spec   `json:"spec"`
}

// FabricRegisterRequest is the POST /fabrics body. MaxTenants 0 selects
// DefaultMaxTenants.
type FabricRegisterRequest struct {
	Name       string `json:"name"`
	Spec       Spec   `json:"spec"`
	MaxTenants int    `json:"maxTenants,omitempty"`
}

// FabricInfo is one GET /fabrics listing entry. Tenants is the live count;
// per-tenant footprint walks are deliberately not offered here — a listing
// that touched a million tenants per scrape would be its own overload.
type FabricInfo struct {
	Name       string `json:"name"`
	Spec       Spec   `json:"spec"`
	MaxTenants int    `json:"maxTenants"`
	Tenants    int    `json:"tenants"`
}

type errResponse struct {
	Error string `json:"error"`
}

// statusFor maps serving-layer errors onto HTTP statuses: requests that
// can never succeed are 400, missing names 404, requests that conflict
// with the instance's current stream state (clocks, shutdown, an estimate
// the window's weights overflow) 409, an oversized NDJSON line or a body
// over its read cap 413 (split the batch), a failed WAL append 500 (the
// batch was not admitted, and the request itself was fine), transient
// overload — a full ingest staging queue — 503 (retryable), and an
// exhausted tenant budget 507 (the operator capped the fabric's memory;
// retrying will not help).
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrWALWrite):
		return http.StatusInternalServerError
	case errors.Is(err, ErrUnknownSampler),
		errors.Is(err, ErrUnknownFabric),
		errors.Is(err, ErrUnknownTenant):
		return http.StatusNotFound
	case errors.Is(err, ErrOverloaded):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrLineTooLong), tooLarge(err):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrTenantBudget):
		return http.StatusInsufficientStorage
	case errors.Is(err, ErrDuplicateName),
		errors.Is(err, ErrTimeBackwards),
		errors.Is(err, ErrClockBackwards),
		errors.Is(err, ErrNoArrivals),
		errors.Is(err, ErrNonFinite),
		errors.Is(err, ErrClosed):
		return http.StatusConflict
	default:
		return http.StatusBadRequest
	}
}

// retryAfterSeconds is the Retry-After hint on 503 responses. Overload
// means the staging queue is full while the applier drains it continuously,
// so the right client move is a short pause and a resend of the SAME batch
// — nothing was admitted. DESIGN.md §7 documents the backoff contract.
const retryAfterSeconds = "1"

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, err error) {
	status := statusFor(err)
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", retryAfterSeconds)
	}
	writeJSON(w, status, errResponse{Error: err.Error()})
}

// ---------------------------------------------------------------------------
// Handlers
// ---------------------------------------------------------------------------

func (s *Server) instanceFor(w http.ResponseWriter, r *http.Request) (*Instance, bool) {
	inst, ok := s.Get(r.PathValue("name"))
	if !ok {
		writeErr(w, fmt.Errorf("%w: %q", ErrUnknownSampler, r.PathValue("name")))
		return nil, false
	}
	return inst, true
}

// atParam parses the optional ?at= query time.
func atParam(r *http.Request) (*int64, error) {
	raw := r.URL.Query().Get("at")
	if raw == "" {
		return nil, nil
	}
	v, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("serve: bad at=%q: want an integer timestamp", raw)
	}
	return &v, nil
}

// handleList renders the registry sorted by name (map order is random;
// listings must be deterministic).
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	names := make([]string, 0, len(s.inst))
	for name := range s.inst {
		names = append(names, name)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	out := make([]SamplerInfo, 0, len(names))
	for _, name := range names {
		inst, ok := s.Get(name)
		if !ok {
			continue
		}
		count, k, words, maxWords := inst.Stats()
		out = append(out, SamplerInfo{
			Name: name, Spec: inst.Spec(),
			Count: count, K: k, Words: words, MaxWords: maxWords,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if err := decodeJSONBody(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	inst, err := s.Register(req.Name, req.Spec)
	if err != nil {
		writeErr(w, err)
		return
	}
	// The same payload GET /samplers serves: Stats reports the fresh
	// instance's real construction footprint, not zeroes.
	count, k, words, maxWords := inst.Stats()
	writeJSON(w, http.StatusCreated, SamplerInfo{
		Name: req.Name, Spec: inst.Spec(),
		Count: count, K: k, Words: words, MaxWords: maxWords,
	})
}

// maxBodyBytes bounds ingest bodies; a serving deployment would tune this.
const maxBodyBytes = 32 << 20

func decodeJSONBody(r *http.Request, v any) error {
	return decodeJSONFrom(http.MaxBytesReader(nil, r.Body, maxBodyBytes), v)
}

// handleIngest accepts one batch per request: a JSON IngestRequest by
// default, or NDJSON Records under Content-Type application/x-ndjson. The
// batch feeds the substrate's batched hot path (ObserveBatch, or
// ObserveWeightedBatch when explicit weights ride along) in one call.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	inst, ok := s.instanceFor(w, r)
	if !ok {
		return
	}
	serveIngest(w, r, inst.Ingest)
}

// Ingest request scratch, shared by both ingest routes: the decoded
// values/timestamps/weights slices are dead the moment the ingest call
// returns — the fabric copies them into its own element batch, and an
// Instance copies what it stages — so they recycle per request.
var (
	ingestValuesPool  = slab.NewSlicePool[string](stream.MaxRecycledCap)
	ingestTSPool      = slab.NewSlicePool[int64](stream.MaxRecycledCap)
	ingestWeightsPool = slab.NewSlicePool[float64](stream.MaxRecycledCap)
)

// serveIngest is the request half both ingest routes share: decode the body
// into pooled scratch, hand the batch to ingest (absent fields nil), write
// the acknowledgement or the error, and recycle the scratch.
func serveIngest(w http.ResponseWriter, r *http.Request, ingest func(values []string, timestamps []int64, weights []float64) (uint64, error)) {
	req, has, err := decodeIngestBody(r, IngestRequest{
		Values:     ingestValuesPool.Get(0),
		Timestamps: ingestTSPool.Get(0),
		Weights:    ingestWeightsPool.Get(0),
	})
	if err == nil {
		var count uint64
		count, err = ingest(req.Values, fieldOf(req.Timestamps, has.timestamps), fieldOf(req.Weights, has.weights))
		if err == nil {
			writeIngested(w, len(req.Values), count)
		}
	}
	if err != nil {
		writeErr(w, err)
	}
	ingestValuesPool.Put(req.Values)
	ingestTSPool.Put(req.Timestamps)
	ingestWeightsPool.Put(req.Weights)
}

// writeIngested writes the IngestResponse acknowledgement with the bytes
// writeJSON would: {"ingested":N,"count":M} and a newline.
func writeIngested(w http.ResponseWriter, ingested int, count uint64) {
	b := make([]byte, 0, 64)
	b = append(b, `{"ingested":`...)
	b = strconv.AppendInt(b, int64(ingested), 10)
	b = append(b, `,"count":`...)
	b = strconv.AppendUint(b, count, 10)
	b = append(b, "}\n"...)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
}

// ingestFields records which optional fields an ingest body carried. From
// the zero IngestRequest a decoded field is non-nil exactly when present;
// decoded into recycled slices it stays non-nil either way, so the ingest
// routes read presence here.
type ingestFields struct{ timestamps, weights bool }

// fieldOf is the batch rule for one decoded field: nil when the body did
// not carry it.
func fieldOf[T any](s []T, present bool) []T {
	if !present {
		return nil
	}
	return s
}

// decodeIngestBody parses an ingest request body — NDJSON under
// Content-Type application/x-ndjson, a JSON IngestRequest otherwise —
// appending into the slices req arrives with (the routes pass slab-recycled
// scratch), and reports which optional fields the body carried. Both go
// through the wire codec (wire.go).
func decodeIngestBody(r *http.Request, req IngestRequest) (IngestRequest, ingestFields, error) {
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/x-ndjson") {
		return parseNDJSON(r, req)
	}
	return decodeIngestJSON(http.MaxBytesReader(nil, r.Body, maxBodyBytes), req)
}

// NDJSON scanner bounds: lines buffer through initialNDJSONBufBytes and may
// grow to maxNDJSONLineBytes; a longer line is an explicit 413
// (ErrLineTooLong) rather than bufio.Scanner's bare "token too long" — the
// client can split the batch or switch to the JSON body.
const (
	initialNDJSONBufBytes = 64 << 10
	maxNDJSONLineBytes    = 1 << 20
)

// parseNDJSON folds a stream of Records into one batch, appending into the
// request's slices. Records must be uniform: either every record carries ts
// or none, and either every record carries weight or none (a ragged stream
// is a malformed batch). Presence is tracked explicitly — not by slice
// nil-ness — because recycled scratch slices are non-nil while empty.
// The line buffer is pooled (wireBufs); each line is decoded in place and
// every value copied out, so nothing references the buffer afterwards.
func parseNDJSON(r *http.Request, req IngestRequest) (IngestRequest, ingestFields, error) {
	buf := wireBufs.Get(initialNDJSONBufBytes)
	defer wireBufs.Put(buf)
	sc := bufio.NewScanner(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	sc.Buffer(buf, maxNDJSONLineBytes)
	line := 0
	var hasTS, hasW bool
	var rec wireRecord
	for sc.Scan() {
		raw := bytes.TrimSpace(sc.Bytes())
		line++
		if len(raw) == 0 {
			continue
		}
		err := decodeNDJSONRecord(raw, &rec)
		switch {
		case err != nil:
			err = fmt.Errorf("serve: bad NDJSON record on line %d: %w", line, err)
		case len(req.Values) == 0:
			hasTS, hasW = rec.hasTS, rec.hasW
		case rec.hasTS != hasTS:
			err = fmt.Errorf("serve: ragged NDJSON batch: line %d switches ts presence", line)
		case rec.hasW != hasW:
			err = fmt.Errorf("serve: ragged NDJSON batch: line %d switches weight presence", line)
		}
		if err != nil {
			// The scanner hands over the tail it holds before it reports
			// the read error that cut the body, so a record that fails
			// once that error is pending reports the error instead.
			if sc.Err() != nil {
				break
			}
			return req, ingestFields{}, err
		}
		req.Values = append(req.Values, rec.value)
		if rec.hasTS {
			req.Timestamps = append(req.Timestamps, rec.ts)
		}
		if rec.hasW {
			req.Weights = append(req.Weights, rec.weight)
		}
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return req, ingestFields{}, fmt.Errorf("%w (%d bytes; split the batch or use the JSON body)", ErrLineTooLong, maxNDJSONLineBytes)
		}
		return req, ingestFields{}, fmt.Errorf("serve: bad NDJSON body: %w", err)
	}
	return req, ingestFields{timestamps: hasTS, weights: hasW}, nil
}

func (s *Server) handleSample(w http.ResponseWriter, r *http.Request) {
	inst, ok := s.instanceFor(w, r)
	if !ok {
		return
	}
	at, err := atParam(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	es, sampled, err := inst.Sample(at)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeResponse(w, appendSampleResponse(respBuf(), es, sampled))
}

func (s *Server) handleSize(w http.ResponseWriter, r *http.Request) {
	inst, ok := s.instanceFor(w, r)
	if !ok {
		return
	}
	at, err := atParam(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	n, err := inst.Size(at)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeResponse(w, appendSizeResponse(respBuf(), n))
}

func (s *Server) handleWeight(w http.ResponseWriter, r *http.Request) {
	inst, ok := s.instanceFor(w, r)
	if !ok {
		return
	}
	at, err := atParam(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	wt, err := inst.Weight(at)
	if err == nil {
		err = checkFinite(wt)
	}
	if err != nil {
		writeErr(w, err)
		return
	}
	writeResponse(w, appendWeightResponse(respBuf(), wt))
}

// SubsetSumResponse answers GET /subsetsum.
type SubsetSumResponse struct {
	OK       bool    `json:"ok"`
	Estimate float64 `json:"estimate"`
}

// handleSubsetSum estimates Σ w(p) over the active elements whose value
// matches the ?prefix= and ?contains= filters (both optional, conjunctive
// — the predicate is evaluated post hoc over the sketch, so any filter
// can be asked after ingest).
func (s *Server) handleSubsetSum(w http.ResponseWriter, r *http.Request) {
	inst, ok := s.instanceFor(w, r)
	if !ok {
		return
	}
	at, err := atParam(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	q := r.URL.Query()
	prefix, contains := q.Get("prefix"), q.Get("contains")
	pred := func(v string) bool {
		return strings.HasPrefix(v, prefix) && strings.Contains(v, contains)
	}
	est, sampled, err := inst.SubsetSum(at, pred)
	if err == nil {
		err = checkFinite(est)
	}
	if err != nil {
		writeErr(w, err)
		return
	}
	writeResponse(w, appendSubsetSumResponse(respBuf(), est, sampled))
}

// handleSnapshot streams the instance's binary snapshot. When a state dir
// is attached and the instance is durable there, the same bytes are also
// persisted as the instance's latest on-disk snapshot — one consistent
// cut, on disk and on the wire.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	inst, ok := s.instanceFor(w, r)
	if !ok {
		return
	}
	name := r.PathValue("name")
	var buf bytes.Buffer
	if err := inst.Snapshot(&buf); err != nil {
		writeErr(w, err)
		return
	}
	if sd := s.stateDir(); sd != nil && sd.has(name) {
		if err := sd.writeSnapBytes(name, buf.Bytes()); err != nil {
			writeErr(w, err)
			return
		}
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

// handleRestore registers an instance under {name} from a snapshot body
// (the bytes POST /snapshot produced). The name must be free — restore
// never replaces a live instance. Any WAL coverage the snapshot mentions
// is irrelevant here: no WAL accompanies an HTTP body, and with a state
// dir attached the instance starts a fresh one before it is published.
func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	inst, _, err := RestoreInstance(bufio.NewReader(http.MaxBytesReader(nil, r.Body, maxSnapshotBytes)))
	if err != nil {
		writeErr(w, fmt.Errorf("serve: restore: %w", err))
		return
	}
	if err := s.adopt(name, inst, s.stateDir()); err != nil {
		inst.Close()
		writeErr(w, err)
		return
	}
	count, k, words, maxWords := inst.Stats()
	writeJSON(w, http.StatusCreated, SamplerInfo{
		Name: name, Spec: inst.Spec(),
		Count: count, K: k, Words: words, MaxWords: maxWords,
	})
}

// ---------------------------------------------------------------------------
// Fabric handlers
// ---------------------------------------------------------------------------

func (s *Server) fabricFor(w http.ResponseWriter, r *http.Request) (*Fabric, bool) {
	f, ok := s.GetFabric(r.PathValue("fabric"))
	if !ok {
		writeErr(w, fmt.Errorf("%w: %q", ErrUnknownFabric, r.PathValue("fabric")))
		return nil, false
	}
	return f, true
}

// handleFabricList renders the fabric registry sorted by name.
func (s *Server) handleFabricList(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	names := make([]string, 0, len(s.fabrics))
	for name := range s.fabrics {
		names = append(names, name)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	out := make([]FabricInfo, 0, len(names))
	for _, name := range names {
		f, ok := s.GetFabric(name)
		if !ok {
			continue
		}
		out = append(out, FabricInfo{
			Name: name, Spec: f.Spec(),
			MaxTenants: f.MaxTenants(), Tenants: f.Tenants(),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleFabricRegister(w http.ResponseWriter, r *http.Request) {
	var req FabricRegisterRequest
	if err := decodeJSONBody(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	f, err := s.RegisterFabric(req.Name, req.Spec, req.MaxTenants)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, FabricInfo{
		Name: req.Name, Spec: f.Spec(),
		MaxTenants: f.MaxTenants(), Tenants: f.Tenants(),
	})
}

// handleTenantIngest is handleIngest against a fabric tenant.
func (s *Server) handleTenantIngest(w http.ResponseWriter, r *http.Request) {
	f, ok := s.fabricFor(w, r)
	if !ok {
		return
	}
	id := r.PathValue("id")
	serveIngest(w, r, func(values []string, timestamps []int64, weights []float64) (uint64, error) {
		return f.Ingest(id, values, timestamps, weights)
	})
}

func (s *Server) handleTenantSample(w http.ResponseWriter, r *http.Request) {
	f, ok := s.fabricFor(w, r)
	if !ok {
		return
	}
	at, err := atParam(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	es, sampled, err := f.Sample(r.PathValue("id"), at)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeResponse(w, appendSampleResponse(respBuf(), es, sampled))
}

func (s *Server) handleTenantSize(w http.ResponseWriter, r *http.Request) {
	f, ok := s.fabricFor(w, r)
	if !ok {
		return
	}
	at, err := atParam(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	n, err := f.Size(r.PathValue("id"), at)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeResponse(w, appendSizeResponse(respBuf(), n))
}

func (s *Server) handleTenantSubsetSum(w http.ResponseWriter, r *http.Request) {
	f, ok := s.fabricFor(w, r)
	if !ok {
		return
	}
	at, err := atParam(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	q := r.URL.Query()
	prefix, contains := q.Get("prefix"), q.Get("contains")
	pred := func(v string) bool {
		return strings.HasPrefix(v, prefix) && strings.Contains(v, contains)
	}
	est, sampled, err := f.SubsetSum(r.PathValue("id"), at, pred)
	if err == nil {
		err = checkFinite(est)
	}
	if err != nil {
		writeErr(w, err)
		return
	}
	writeResponse(w, appendSubsetSumResponse(respBuf(), est, sampled))
}

// Compile-time check: the wire sample shape matches the stream element.
var _ = func(e stream.Element[string]) SampledElement {
	return SampledElement{Value: e.Value, Index: e.Index, TS: e.TS}
}
