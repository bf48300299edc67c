package main

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	fonduer "repro"
)

func get(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestServeStoreIntegration is the command-level acceptance test: a
// session batch-built through the fonduer.Store API (exactly what
// 'fonduer -store' persists, same <store>/<relation> layout) is
// served by the registry's default tenant — resumed from disk, with
// the KB, candidates and metadata immediately queryable at both the
// un-prefixed alias and the /t/default/ routes.
func TestServeStoreIntegration(t *testing.T) {
	storeDir := t.TempDir()
	corpus := fonduer.ElectronicsCorpus(3, 6)
	task := corpus.Tasks[0]
	opts := fonduer.Options{Threshold: 0.5, Epochs: 2, Seed: 1}
	st := fonduer.NewStore(task, opts)
	t.Cleanup(func() {
		if err := st.Close(); err != nil {
			t.Error(err)
		}
	})
	if err := st.AddDocuments(corpus.Docs...); err != nil {
		t.Fatal(err)
	}
	if err := st.Snapshot(filepath.Join(storeDir, task.Relation)); err != nil {
		t.Fatal(err)
	}

	rg, err := buildRegistry(storeDir, "electronics", task.Relation, "", "", opts, publishConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rg.Close()
	list := rg.List()
	if len(list) != 1 || list[0].Name != "default" || !list[0].Default {
		t.Fatalf("registry tenants = %+v", list)
	}
	if !list[0].Resumed {
		t.Fatal("expected the snapshot to be resumed")
	}
	if list[0].Relation != task.Relation {
		t.Fatalf("served relation %q, want %q", list[0].Relation, task.Relation)
	}
	ts := httptest.NewServer(rg.Handler())
	defer ts.Close()

	h := get(t, ts.URL+"/healthz")
	if h["docs"].(float64) != 6 || h["ok"] != true {
		t.Fatalf("resumed healthz = %v", h)
	}
	meta := get(t, ts.URL+"/meta")
	if meta["relation"].(string) != task.Relation {
		t.Fatalf("meta relation = %v", meta["relation"])
	}
	if _, ok := meta["registry"]; !ok {
		t.Fatalf("registry /meta lacks fleet section: %v", meta)
	}
	kb := get(t, ts.URL+"/kb")
	if int(kb["total"].(float64)) != len(kb["tuples"].([]any)) {
		t.Fatalf("kb payload inconsistent: %v", kb)
	}
	// The same session is reachable through its tenant prefix.
	kbT := get(t, ts.URL+"/t/default/kb")
	if int(kbT["total"].(float64)) != int(kb["total"].(float64)) {
		t.Fatalf("/t/default/kb total %v != alias total %v", kbT["total"], kb["total"])
	}
}

// TestServeFreshSession covers the no-snapshot path: buildRegistry
// with an empty store directory serves an empty epoch-0 default
// tenant ready for online ingestion.
func TestServeFreshSession(t *testing.T) {
	rg, err := buildRegistry(t.TempDir(), "electronics", "", "", "", fonduer.Options{Threshold: 0.5, Epochs: 2, Seed: 1, Workers: 1}, publishConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rg.Close()
	list := rg.List()
	if len(list) != 1 || list[0].Resumed {
		t.Fatalf("fresh registry = %+v", list)
	}
	if list[0].Relation == "" {
		t.Fatal("no default relation resolved")
	}
	ts := httptest.NewServer(rg.Handler())
	defer ts.Close()
	h := get(t, ts.URL+"/healthz")
	if h["docs"].(float64) != 0 || h["epoch"].(float64) != 0 {
		t.Fatalf("fresh healthz = %v", h)
	}
}

// TestServeMultiTenantBootstrap covers -tenants parsing and the
// resulting fleet: per-tenant domains, backends and budgets, the
// -default-tenant override, and spec validation errors.
func TestServeMultiTenantBootstrap(t *testing.T) {
	opts := fonduer.Options{Threshold: 0.5, Epochs: 1, Seed: 1, Workers: 1}
	rg, err := buildRegistry(t.TempDir(), "electronics", "",
		"elec:electronics, ads:ads:::, paleo:paleo::disk:4", "ads", opts, publishConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rg.Close()
	list := rg.List()
	if len(list) != 3 {
		t.Fatalf("tenants = %+v", list)
	}
	byName := map[string]bool{}
	for _, ts := range list {
		byName[ts.Name] = true
		if ts.Name == "paleo" {
			if ts.Backend != "disk" || ts.MaxResidentDocs != 4 {
				t.Fatalf("paleo tenant config not applied: %+v", ts)
			}
		}
		if ts.Default != (ts.Name == "ads") {
			t.Fatalf("default flag wrong on %+v", ts)
		}
	}
	if !byName["elec"] || !byName["ads"] || !byName["paleo"] {
		t.Fatalf("tenant names = %v", byName)
	}
	if rg.DefaultName() != "ads" {
		t.Fatalf("default tenant = %q", rg.DefaultName())
	}

	for _, bad := range []string{"justaname", "x:nosuchdomain", "a:electronics:NoSuchRelation", "e:electronics::tape", "e:electronics::disk:notanum"} {
		if _, err := buildRegistry(t.TempDir(), "electronics", "", bad, "", opts, publishConfig{}); err == nil {
			t.Fatalf("-tenants %q must fail", bad)
		}
	}
	if _, err := buildRegistry(t.TempDir(), "electronics", "", "a:electronics", "nosuchtenant", opts, publishConfig{}); err == nil {
		t.Fatal("-default-tenant naming an unknown tenant must fail")
	}
}

// TestServeUnknownInputs covers flag validation of the legacy
// single-tenant surface.
func TestServeUnknownInputs(t *testing.T) {
	opts := fonduer.Options{Epochs: 1, Seed: 1, Workers: 1}
	if _, err := buildRegistry("", "nosuchdomain", "", "", "", opts, publishConfig{}); err == nil {
		t.Fatal("unknown domain must fail")
	}
	if _, err := buildRegistry("", "electronics", "NoSuchRelation", "", "", opts, publishConfig{}); err == nil {
		t.Fatal("unknown relation must fail")
	}
}

// TestShutdownReleasesSpillDirs is the regression test for the
// shutdown spill leak: before signal handling existed, SIGINT/SIGTERM
// killed the process without running Close, leaking one
// kbase-spill-* directory per disk tenant. serveUntil must drain the
// HTTP server and close every tenant, leaving the spill area empty.
func TestShutdownReleasesSpillDirs(t *testing.T) {
	spillArea := t.TempDir()
	t.Setenv("TMPDIR", spillArea) // disk engines os.MkdirTemp here

	opts := fonduer.Options{Threshold: 0.5, Epochs: 1, Seed: 1, Workers: 1}
	rg, err := buildRegistry("", "electronics", "",
		"a:electronics::disk,b:ads::disk,c:genomics::disk", "", opts, publishConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if dirs := spillDirs(t, spillArea); len(dirs) != 3 {
		t.Fatalf("expected 3 live spill directories, found %v", dirs)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	httpSrv := &http.Server{Handler: rg.Handler()}
	go func() { done <- serveUntil(httpSrv, rg, ln, stop) }()

	// The server is live: a real request round-trips.
	h := get(t, "http://"+ln.Addr().String()+"/healthz")
	if h["ok"] != true {
		t.Fatalf("healthz = %v", h)
	}

	stop <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serveUntil returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serveUntil did not return after SIGTERM")
	}
	if dirs := spillDirs(t, spillArea); len(dirs) != 0 {
		t.Fatalf("shutdown leaked spill directories: %v", dirs)
	}
}

func spillDirs(t *testing.T, root string) []string {
	t.Helper()
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "kbase-spill-") {
			out = append(out, e.Name())
		}
	}
	return out
}
