// Command fonduer runs the full KBC pipeline over a corpus directory
// (as produced by cmd/synthgen): it parses the documents into the
// multimodal data model, aligns rendered layouts when present, runs
// candidate generation / featurization / supervision / classification
// with the selected domain's built-in task definitions, prints the
// extracted knowledge base, and — when gold files are present —
// reports precision/recall/F1.
//
// Usage:
//
//	fonduer -dir ./corpus -domain electronics [-relation HasCollectorCurrent] [-threshold 0.5]
//
// With -store <dir>, the session's intermediate relations (candidates,
// features, feature counts, labels) are persisted per relation under
// <dir>/<relation>; a later invocation with the same -store resumes
// from the snapshot — skipping document parsing and candidate
// extraction entirely — and re-runs only training and classification
// (e.g. with a different -threshold, -epochs or -seed).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	fonduer "repro"
	"repro/internal/kbase"
	"repro/internal/obs"
)

func main() {
	dir := flag.String("dir", "corpus", "corpus directory (docs/ and gold/ subdirectories)")
	domain := flag.String("domain", "electronics", "task definitions to use: electronics, ads, paleo, genomics")
	relation := flag.String("relation", "", "restrict to one relation (default: all of the domain's)")
	threshold := flag.Float64("threshold", 0.5, "classification threshold over output marginals")
	epochs := flag.Int("epochs", 16, "training epochs")
	seed := flag.Int64("seed", 1, "random seed")
	out := flag.String("out", "", "write each relation's KB as TSV into this directory")
	store := flag.String("store", "", "persist the session's relations under this directory and resume from them when present")
	backend := flag.String("backend", "", "storage engine for -store sessions: memory, disk (column-major binary pages spilled to one segment file per table behind an LRU page cache) or columnar (the same pages kept in memory; both decode only predicate columns on filtered reads and prune pages by zone maps; default: $FONDUER_BACKEND, else memory)")
	maxResident := flag.Int("max-resident-docs", 0, "with -store, keep at most this many parsed documents hydrated in RAM, evicting LRU documents and rehydrating from the session relations on demand (0 = unlimited)")
	logLevel := flag.String("log-level", "warn", "structured-log level: debug, info, warn, error (JSON lines on stderr)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this separate address while the pipeline runs (e.g. 127.0.0.1:6060; empty = off)")
	flag.Parse()

	if err := obs.InitLogging(*logLevel, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "fonduer:", err)
		os.Exit(1)
	}
	if *debugAddr != "" {
		dbg, stopDebug, err := obs.StartDebugServer(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fonduer:", err)
			os.Exit(1)
		}
		defer stopDebug()
		fmt.Printf("fonduer: pprof on http://%s/debug/pprof/\n", dbg)
	}
	if !kbase.ValidBackendKind(*backend) {
		fmt.Fprintf(os.Stderr, "fonduer: unknown -backend %q (want %s)\n", *backend, kbase.BackendKindsWant())
		os.Exit(1)
	}
	if err := run(*dir, *domain, *relation, *threshold, *epochs, *seed, *out, *store, *backend, *maxResident); err != nil {
		fmt.Fprintln(os.Stderr, "fonduer:", err)
		os.Exit(1)
	}
}

func run(dir, domain, relation string, threshold float64, epochs int, seed int64, outDir, storeDir, backend string, maxResident int) error {
	// Task definitions come from the domain's built-in tasks (the
	// matchers, throttlers and labeling functions a user would write).
	// Two documents suffice: only the task definitions are used.
	ref, err := fonduer.CorpusByDomain(domain, 0, 2)
	if err != nil {
		return err
	}

	// Documents are parsed lazily: a fully resumed -store session never
	// touches the corpus sources at all.
	var docs []*fonduer.Document
	docsLoaded := false
	loadCorpus := func() error {
		if docsLoaded {
			return nil
		}
		docs, err = loadDocs(filepath.Join(dir, "docs"))
		if err != nil {
			return err
		}
		if len(docs) == 0 {
			return fmt.Errorf("no documents found under %s", dir)
		}
		docsLoaded = true
		fmt.Printf("parsed %d documents\n", len(docs))
		return nil
	}

	ranTask := false
	kb := fonduer.NewKB()
	for _, task := range ref.Tasks {
		if relation != "" && task.Relation != relation {
			continue
		}
		ranTask = true
		gold, err := loadGold(filepath.Join(dir, "gold", task.Relation+".tsv"))
		if err != nil {
			return err
		}
		// ThresholdOverride, not Threshold: the flag value is always
		// explicit, and the plain field snaps 0 to the 0.5 default.
		opts := fonduer.Options{
			ThresholdOverride: fonduer.Float64(threshold), Epochs: epochs, Seed: seed,
			Backend: backend, MaxResidentDocs: maxResident,
		}

		var res fonduer.Result
		if storeDir == "" {
			if err := loadCorpus(); err != nil {
				return err
			}
			train, test := split(docs)
			res = fonduer.Run(task, train, test, gold, opts)
		} else {
			snapDir := filepath.Join(storeDir, task.Relation)
			var st *fonduer.Store
			if fonduer.IsStoreDir(snapDir) {
				st, err = fonduer.OpenStore(snapDir, task, opts)
				if err != nil {
					return fmt.Errorf("resuming %s: %w", snapDir, err)
				}
				fmt.Printf("resumed %s session from %s: %d documents, %d candidates (no re-parse, no re-extract)\n",
					task.Relation, snapDir, len(st.DocNames()), st.NumCandidates())
			} else {
				if err := loadCorpus(); err != nil {
					return err
				}
				st = fonduer.NewStore(task, opts)
				if err := st.AddDocuments(docs...); err != nil {
					st.Close()
					return err
				}
				if err := st.Snapshot(snapDir); err != nil {
					st.Close()
					return err
				}
				fmt.Printf("persisted %s session to %s: %d documents, %d candidates\n",
					task.Relation, snapDir, len(st.DocNames()), st.NumCandidates())
			}
			trainNames, testNames := splitNames(st.DocNames())
			res, err = st.RunSplit(trainNames, testNames, gold)
			// Deterministically reclaim the disk backend's spill before
			// moving to the next relation.
			st.Close()
			if err != nil {
				return err
			}
		}
		fmt.Printf("\n== %s ==\n", task.Relation)
		fmt.Printf("candidates: %d train / %d test; features: %d; LF coverage: %.2f\n",
			res.TrainCandidates, res.TestCandidates, res.NumFeatures, res.LFMetrics.Coverage)
		if len(gold) > 0 {
			fmt.Printf("quality on test split: %s\n", res.Quality)
		}
		tbl, err := fonduer.WriteKB(kb, task, res.Predicted)
		if err != nil {
			return err
		}
		fmt.Printf("knowledge base (%d entries):\n", tbl.Len())
		printKB(tbl)
		if outDir != "" {
			if err := os.MkdirAll(outDir, 0o755); err != nil {
				return err
			}
			f, err := os.Create(filepath.Join(outDir, task.Relation+".tsv"))
			if err != nil {
				return err
			}
			if err := tbl.WriteTSV(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", filepath.Join(outDir, task.Relation+".tsv"))
		}
	}
	if !ranTask {
		return fmt.Errorf("no task matches relation %q in domain %q", relation, domain)
	}
	return nil
}

func loadDocs(dir string) ([]*fonduer.Document, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var docs []*fonduer.Document
	for _, e := range entries {
		name := e.Name()
		path := filepath.Join(dir, name)
		base := strings.TrimSuffix(name, filepath.Ext(name))
		switch filepath.Ext(name) {
		case ".html":
			body, err := os.ReadFile(path)
			if err != nil {
				return nil, err
			}
			doc := fonduer.ParseHTML(base, string(body))
			// Merge the rendered layout when present.
			if vbody, err := os.ReadFile(filepath.Join(dir, base+".vdoc")); err == nil {
				if _, err := fonduer.AlignVDoc(doc, string(vbody)); err != nil {
					return nil, fmt.Errorf("%s: %w", base, err)
				}
			}
			docs = append(docs, doc)
		case ".xml":
			body, err := os.ReadFile(path)
			if err != nil {
				return nil, err
			}
			doc, err := fonduer.ParseXML(base, string(body))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", base, err)
			}
			docs = append(docs, doc)
		}
	}
	sort.Slice(docs, func(i, j int) bool { return docs[i].Name < docs[j].Name })
	return docs, nil
}

func loadGold(path string) ([]fonduer.GoldTuple, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []fonduer.GoldTuple
	for _, line := range strings.Split(string(body), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Split(line, "\t")
		if len(fields) < 2 {
			return nil, fmt.Errorf("%s: malformed gold line %q", path, line)
		}
		out = append(out, fonduer.GoldTuple{Doc: fields[0], Values: fields[1:]})
	}
	return out, nil
}

// splitNames is the single partition rule — core.AlternateSplit —
// consumed by both the fresh path (split) and the store-resume path,
// so the two invocation styles can never disagree on the split.
func splitNames(names []string) (train, test []string) {
	return fonduer.AlternateSplit(names)
}

func split(docs []*fonduer.Document) (train, test []*fonduer.Document) {
	byName := make(map[string]*fonduer.Document, len(docs))
	names := make([]string, len(docs))
	for i, d := range docs {
		byName[d.Name] = d
		names[i] = d.Name
	}
	trainNames, testNames := splitNames(names)
	for _, n := range trainNames {
		train = append(train, byName[n])
	}
	for _, n := range testNames {
		test = append(test, byName[n])
	}
	return train, test
}

func printKB(tbl *fonduer.KBTable) {
	shown := 0
	tbl.Scan(func(tp fonduer.Tuple) bool {
		parts := make([]string, len(tp))
		for i, v := range tp {
			parts[i] = fmt.Sprint(v)
		}
		fmt.Println("  " + strings.Join(parts, " | "))
		shown++
		return shown < 25
	})
	if tbl.Len() > shown {
		fmt.Printf("  ... and %d more\n", tbl.Len()-shown)
	}
}
