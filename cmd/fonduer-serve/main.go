// Command fonduer-serve serves knowledge-base sessions over HTTP:
// snapshot-isolated reads (KB tuples, candidates, marginals, LF
// metrics, feature statistics, session metadata), online document
// ingestion with incremental retraining, ad-hoc classification
// against the current model, and snapshot-to-disk — all concurrently,
// with every response served from exactly one published epoch (see
// internal/serve for the copy-on-write concurrency model).
//
// One process carries N isolated tenants (a session registry, see
// internal/serve/registry.go): each tenant is its own store, writer
// goroutine and epoch pointer, routed under /t/<tenant>/..., with the
// classic un-prefixed routes aliasing the default tenant. Tenants are
// bootstrapped with -tenants or created at runtime via
// POST /admin/tenants; all tenants share one worker-pool budget
// (-pool) so a retrain in one cannot starve the rest.
//
// Usage:
//
//	fonduer-serve -addr :8080 -domain electronics                # one empty default tenant, ingest online
//	fonduer-serve -store ./session -domain electronics           # serve a 'fonduer -store ./session' build
//	fonduer-serve -store ./session -relation HasCollectorCurrent # pick one of the domain's relations
//	fonduer-serve -backend disk -max-resident-docs 64            # spilled relations + parsed-doc eviction
//	fonduer-serve -tenants 'elec:electronics,ads:ads::disk:32'   # multi-tenant bootstrap
//	                                                             # (name:domain[:relation[:backend[:maxResidentDocs]]])
//
// With -store, the directory layout of cmd/fonduer is understood
// directly: the default tenant resumes a batch-built snapshot at
// <store>/<relation> (no re-parse, no re-extract); other tenants
// persist and resume under <store>/<tenant>/<relation> via
// POST /t/<tenant>/admin/snapshot.
//
// Endpoints (all JSON; every response carries its epoch):
//
//	GET  /healthz   GET /kb   GET /candidates   GET /marginals
//	GET  /lfmetrics GET /features GET /meta     (default-tenant alias;
//	                                             /healthz and /meta aggregate the fleet)
//	POST /ingest    POST /classify   POST /admin/snapshot
//	GET|POST /admin/tenants   DELETE /admin/tenants/<name>
//	GET  /metrics   (Prometheus text exposition, fleet + per-tenant)
//	GET  /admin/traces   (recent publication span trees, per tenant)
//	/t/<tenant>/<any of the per-tenant routes above>
//
// Observability: -log-level picks the structured JSON log level,
// -slow-query-ms logs filtered /kb reads over the threshold with the
// plan the storage layer chose, and -debug-addr serves net/http/pprof
// on a separate listener so profiling never contends with the API.
//
// On SIGINT/SIGTERM the server drains in-flight requests and closes
// every tenant, releasing the disk backend's spill directories.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	fonduer "repro"
	"repro/internal/kbase"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/serve"
)

func main() {
	store := flag.String("store", "", "session directory as used by 'fonduer -store' (default tenant at <store>/<relation>, others at <store>/<tenant>/<relation>)")
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "per-tenant worker count for ingest-time pipeline stages and minibatch training (0 = GOMAXPROCS)")
	poolSize := flag.Int("pool", 0, "fleet-wide worker budget shared across all tenants' parallel stages (0 = GOMAXPROCS, <0 = unlimited); one tenant's retrain can use at most this many extra goroutines")
	batch := flag.Int("batch", 0, "training minibatch size per published view (0 = 1, one Adam step per example; >1 parallelizes gradient work across -workers)")
	domain := flag.String("domain", "electronics", "default tenant's task definitions: electronics, ads, paleo, genomics")
	relation := flag.String("relation", "", "default tenant's relation (default: the domain's first)")
	tenants := flag.String("tenants", "", "bootstrap tenants as comma-separated name:domain[:relation[:backend[:maxResidentDocs]]] specs; empty = one default tenant from -domain/-relation")
	defaultTenant := flag.String("default-tenant", "", "tenant served by the un-prefixed routes (default: the first bootstrapped tenant)")
	threshold := flag.Float64("threshold", 0.5, "classification threshold over output marginals")
	epochs := flag.Int("epochs", 16, "training epochs per published view")
	seed := flag.Int64("seed", 1, "random seed")
	backend := flag.String("backend", "", "storage engine for session relations: memory, disk (column-major binary pages spilled to one segment file per table behind an LRU page cache) or columnar (the same pages kept in memory; both decode only predicate columns on filtered reads and prune pages by zone maps; default: $FONDUER_BACKEND, else memory); per-tenant overrides via -tenants or POST /admin/tenants")
	maxResident := flag.Int("max-resident-docs", 0, "keep at most this many parsed documents hydrated in RAM per tenant, evicting LRU documents and rehydrating on demand; /meta reports the counters (0 = unlimited)")
	syncPublish := flag.Bool("sync-publish", false, "retrain synchronously on every ingest before publishing (the pre-async behavior); default is async two-phase publication: immediate delta epochs + background retraining")
	trainDrift := flag.Float64("train-drift", 0.10, "async mode: trigger a background retrain when the session feature space has grown by more than this fraction since the serving model generation was trained (<=0 disables the drift trigger)")
	trainInterval := flag.Duration("train-interval", 30*time.Second, "async mode: retrain at this cadence whenever delta epochs have been published since the serving generation was trained (0 disables the timer)")
	logLevel := flag.String("log-level", "info", "structured-log level: debug, info, warn, error (JSON lines on stderr)")
	slowQueryMs := flag.Int("slow-query-ms", 500, "log filtered /kb reads slower than this many milliseconds, with the chosen plan (0 = off)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this separate address (e.g. 127.0.0.1:6060; empty = off)")
	flag.Parse()

	if err := obs.InitLogging(*logLevel, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "fonduer-serve:", err)
		os.Exit(1)
	}
	if *slowQueryMs > 0 {
		obs.SetSlowQueryThreshold(time.Duration(*slowQueryMs) * time.Millisecond)
	}
	if *debugAddr != "" {
		dbg, stopDebug, err := obs.StartDebugServer(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fonduer-serve:", err)
			os.Exit(1)
		}
		defer stopDebug()
		fmt.Printf("fonduer-serve: pprof on http://%s/debug/pprof/\n", dbg)
	}
	if !kbase.ValidBackendKind(*backend) {
		fmt.Fprintf(os.Stderr, "fonduer-serve: unknown -backend %q (want %s)\n", *backend, kbase.BackendKindsWant())
		os.Exit(1)
	}
	// The fleet-wide pool budget: installed before any tenant exists so
	// even bootstrap-time view building honors it.
	if *poolSize >= 0 {
		pool.SetSharedLimit(pool.Workers(*poolSize))
	}

	// The flag value is always explicit, so ThresholdOverride is the
	// right carrier: it expresses every value exactly, including 0
	// (which the plain field's zero-value sentinel would snap to 0.5).
	opts := fonduer.Options{
		ThresholdOverride: fonduer.Float64(*threshold), Epochs: *epochs, Seed: *seed,
		Workers: *workers, Batch: *batch,
		Backend: *backend, MaxResidentDocs: *maxResident,
	}
	pub := publishConfig{async: !*syncPublish, drift: *trainDrift, interval: *trainInterval}
	rg, err := buildRegistry(*store, *domain, *relation, *tenants, *defaultTenant, opts, pub)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fonduer-serve:", err)
		os.Exit(1)
	}
	for _, ts := range rg.List() {
		state := "empty (ingest via POST /t/" + ts.Name + "/ingest)"
		if ts.Resumed {
			state = fmt.Sprintf("resumed: %d documents, %d candidates", ts.Docs, ts.Candidates)
		}
		def := ""
		if ts.Default {
			def = " [default]"
		}
		fmt.Printf("tenant %-16s %s/%s backend=%s %s%s\n", ts.Name, ts.Domain, ts.Relation, ts.Backend, state, def)
	}
	fmt.Printf("fonduer-serve: %d tenant(s), pool budget %d, listening on %s\n",
		len(rg.List()), pool.SharedLimit(), *addr)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		rg.Close()
		fmt.Fprintln(os.Stderr, "fonduer-serve:", err)
		os.Exit(1)
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := serveUntil(&http.Server{Handler: rg.Handler()}, rg, ln, stop); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "fonduer-serve:", err)
		os.Exit(1)
	}
}

// serveUntil serves ln until a shutdown signal arrives (or the
// listener fails), then drains in-flight requests via
// http.Server.Shutdown and closes every tenant. The registry Close is
// what releases the disk backend's spill directories — before signal
// handling existed, SIGINT/SIGTERM killed the process with the
// deferred Close never run, leaking a spill directory per disk
// tenant (the GC finalizer backstop doesn't fire on process exit).
func serveUntil(httpSrv *http.Server, rg *serve.Registry, ln net.Listener, stop <-chan os.Signal) error {
	defer rg.Close()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case sig := <-stop:
		fmt.Printf("fonduer-serve: caught %v, draining requests and closing tenants\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			httpSrv.Close() // drain timed out: cut the stragglers, still close stores
		}
		return nil
	}
}

// resolveTask maps -domain/-relation (or a tenant spec) to the
// domain's task definitions — the same lookup every binary shares, so
// identical matchers/throttlers/LFs everywhere. Gold tuples are not
// served: a production tenant's corpus arrives online, so quality
// evaluation stays empty exactly as in the single-tenant server.
func resolveTask(domain, relation string) (fonduer.Task, []fonduer.GoldTuple, error) {
	ref, err := fonduer.CorpusByDomain(domain, 0, 2)
	if err != nil {
		return fonduer.Task{}, nil, err
	}
	for _, t := range ref.Tasks {
		if relation == "" || t.Relation == relation {
			return t, nil, nil
		}
	}
	return fonduer.Task{}, nil, fmt.Errorf("no task matches relation %q in domain %q", relation, domain)
}

// parseTenantSpecs parses the -tenants flag: comma-separated
// name:domain[:relation[:backend[:maxResidentDocs]]] with empty
// positional fields allowed (elec:electronics::disk).
func parseTenantSpecs(s string) ([]serve.TenantConfig, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []serve.TenantConfig
	for _, spec := range strings.Split(s, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		parts := strings.Split(spec, ":")
		if len(parts) < 2 || len(parts) > 5 || parts[0] == "" || parts[1] == "" {
			return nil, fmt.Errorf("bad -tenants spec %q (want name:domain[:relation[:backend[:maxResidentDocs]]])", spec)
		}
		tc := serve.TenantConfig{Name: parts[0], Domain: parts[1]}
		if len(parts) > 2 {
			tc.Relation = parts[2]
		}
		if len(parts) > 3 {
			tc.Backend = parts[3]
		}
		if len(parts) > 4 && parts[4] != "" {
			n, err := strconv.Atoi(parts[4])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("bad -tenants spec %q: maxResidentDocs %q is not a non-negative integer", spec, parts[4])
			}
			tc.MaxResidentDocs = n
		}
		out = append(out, tc)
	}
	return out, nil
}

// publishConfig carries the -sync-publish/-train-drift/-train-interval
// flag surface into the registry: async two-phase publication (the
// default) or the pre-async synchronous retrain-per-ingest behavior.
type publishConfig struct {
	async    bool
	drift    float64
	interval time.Duration
}

// buildRegistry assembles the session registry from the flag surface:
// explicit -tenants specs, or the legacy single-tenant shape (one
// tenant named "default" from -domain/-relation, resuming the
// cmd/fonduer <store>/<relation> layout directly).
func buildRegistry(storeDir, domain, relation, tenantsFlag, defaultTenant string, opts fonduer.Options, pub publishConfig) (*serve.Registry, error) {
	rg, err := serve.NewRegistry(serve.RegistryConfig{
		Resolve:       resolveTask,
		BaseOptions:   opts,
		SnapshotRoot:  storeDir,
		Async:         pub.async,
		TrainDrift:    pub.drift,
		TrainInterval: pub.interval,
	})
	if err != nil {
		return nil, err
	}
	specs, err := parseTenantSpecs(tenantsFlag)
	if err != nil {
		return nil, err
	}
	if len(specs) == 0 {
		tc := serve.TenantConfig{Name: "default", Domain: domain, Relation: relation}
		if storeDir != "" {
			task, _, err := resolveTask(domain, relation)
			if err != nil {
				return nil, err
			}
			// Accept both a per-relation snapshot directory and the
			// cmd/fonduer parent layout (<store>/<relation>) — the PR 3
			// contract: fonduer and fonduer-serve hand one session back
			// and forth through the same path.
			snapDir := storeDir
			if !fonduer.IsStoreDir(snapDir) {
				snapDir = filepath.Join(storeDir, task.Relation)
			}
			tc.SnapshotDir = snapDir
		}
		specs = []serve.TenantConfig{tc}
	}
	for _, tc := range specs {
		if _, err := rg.Create(tc); err != nil {
			rg.Close()
			return nil, err
		}
	}
	if defaultTenant != "" {
		if err := rg.SetDefault(defaultTenant); err != nil {
			rg.Close()
			return nil, err
		}
	}
	return rg, nil
}
