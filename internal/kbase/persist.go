package kbase

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// TSV field escaping: tabs and newlines are the format's structural
// characters, so string values containing them must be encoded or a
// row shears apart on read. The scheme is the usual minimal one —
// backslash-escape the backslash itself plus the three characters TSV
// cannot carry raw:
//
//	\  -> \\    tab -> \t    newline -> \n    carriage return -> \r
//
// Every tab-separated field (header and data alike) goes through the
// same escape/unescape pair, so any Go string round-trips.
const tsvEscapes = "\\\t\n\r"

// escapeTSV encodes one field for embedding in a TSV line.
func escapeTSV(s string) string {
	if !strings.ContainsAny(s, tsvEscapes) {
		return s
	}
	var sb strings.Builder
	sb.Grow(len(s) + 8)
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			sb.WriteString(`\\`)
		case '\t':
			sb.WriteString(`\t`)
		case '\n':
			sb.WriteString(`\n`)
		case '\r':
			sb.WriteString(`\r`)
		default:
			sb.WriteByte(s[i])
		}
	}
	return sb.String()
}

// unescapeTSV decodes a field written by escapeTSV.
func unescapeTSV(s string) (string, error) {
	if !strings.ContainsRune(s, '\\') {
		return s, nil
	}
	var sb strings.Builder
	sb.Grow(len(s))
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' {
			sb.WriteByte(s[i])
			continue
		}
		i++
		if i >= len(s) {
			return "", fmt.Errorf("kbase: dangling backslash in TSV field %q", s)
		}
		switch s[i] {
		case '\\':
			sb.WriteByte('\\')
		case 't':
			sb.WriteByte('\t')
		case 'n':
			sb.WriteByte('\n')
		case 'r':
			sb.WriteByte('\r')
		default:
			return "", fmt.Errorf("kbase: unknown escape \\%c in TSV field %q", s[i], s)
		}
	}
	return sb.String(), nil
}

// splitTSV splits a line into unescaped fields.
func splitTSV(line string) ([]string, error) {
	raw := strings.Split(line, "\t")
	out := make([]string, len(raw))
	for i, f := range raw {
		v, err := unescapeTSV(f)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// encodeTupleTSV renders one tuple as an escaped TSV line (no
// trailing newline) — the row encoding every backend's Snapshot
// emits, which is what makes a table's serialized bytes identical
// across backends.
func encodeTupleTSV(tp Tuple) string {
	parts := make([]string, len(tp))
	for i, v := range tp {
		parts[i] = escapeTSV(fmt.Sprint(v))
	}
	return strings.Join(parts, "\t")
}

// parseTupleFields type-converts one row's unescaped fields against
// the schema.
func parseTupleFields(schema Schema, parts []string) (Tuple, error) {
	if len(parts) != schema.Arity() {
		return nil, fmt.Errorf("%d values, want %d", len(parts), schema.Arity())
	}
	tp := make(Tuple, len(parts))
	for i, p := range parts {
		switch schema.Columns[i].Type {
		case IntCol:
			v, err := strconv.ParseInt(p, 10, 64)
			if err != nil {
				return nil, err
			}
			tp[i] = v
		case FloatCol:
			v, err := strconv.ParseFloat(p, 64)
			if err != nil {
				return nil, err
			}
			tp[i] = v
		default:
			tp[i] = p
		}
	}
	return tp, nil
}

// WriteTSV serializes the table as tab-separated values with a header
// line of "name:type" column specs, so a table round-trips through
// ReadTSV with its schema intact. String values are escaped, so tabs
// and newlines inside values survive the round trip. The row bytes
// come from the backend's Snapshot.
func (t *Table) WriteTSV(w io.Writer) error {
	specs := make([]string, len(t.schema.Columns))
	for i, c := range t.schema.Columns {
		specs[i] = escapeTSV(c.Name) + ":" + c.Type.String()
	}
	if _, err := fmt.Fprintf(w, "#%s\t%s\n", escapeTSV(t.schema.Name), strings.Join(specs, "\t")); err != nil {
		return err
	}
	return t.be.Snapshot(w)
}

// readLine reads one newline-terminated line of unbounded length,
// returning io.EOF only when no bytes remain. Unlike bufio.Scanner
// there is no line-length cap: a single huge value cannot fail the
// read.
func readLine(r *bufio.Reader) (string, error) {
	line, err := r.ReadString('\n')
	if err == io.EOF && line != "" {
		err = nil // final line without trailing newline
	}
	line = strings.TrimSuffix(line, "\n")
	line = strings.TrimSuffix(line, "\r") // tolerate CRLF input
	return line, err
}

// ReadTSV parses a table previously written by WriteTSV, rebuilding
// the schema from the header line and type-converting every value.
// The table is in-memory; ReadTSVWith restores into another engine.
func ReadTSV(r io.Reader) (*Table, error) {
	return ReadTSVWith(r, MemoryEngine{})
}

// ReadTSVWith is ReadTSV with the restored rows stored through the
// given engine — how a disk-backed session resumes a snapshot without
// materializing its relations in memory.
func ReadTSVWith(r io.Reader, engine Engine) (*Table, error) {
	br := bufio.NewReader(r)
	header, err := readLine(br)
	if err == io.EOF {
		return nil, fmt.Errorf("kbase: empty TSV input")
	}
	if err != nil {
		return nil, fmt.Errorf("kbase: reading TSV header: %w", err)
	}
	if !strings.HasPrefix(header, "#") {
		return nil, fmt.Errorf("kbase: TSV header must start with '#', got %q", header)
	}
	fields, err := splitTSV(header[1:])
	if err != nil {
		return nil, err
	}
	if len(fields) < 2 {
		return nil, fmt.Errorf("kbase: malformed TSV header %q", header)
	}
	name := fields[0]
	specs := make([]string, 0, len(fields)-1)
	for _, f := range fields[1:] {
		// Normalize "col:varchar" etc. back into NewSchema's grammar.
		specs = append(specs, strings.Replace(f, ":varchar", "", 1))
	}
	schema, err := NewSchema(name, specs...)
	if err != nil {
		return nil, err
	}
	be, err := engine.NewBackend(schema)
	if err != nil {
		return nil, fmt.Errorf("kbase: creating %s backend for %s: %w", engine.Kind(), schema.Name, err)
	}
	t := newTableWith(schema, be)
	lineNo := 1
	for {
		line, err := readLine(br)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("kbase: reading TSV: %w", err)
		}
		lineNo++
		// No blank-line skipping: with escaping, every emitted line —
		// including "" (a single empty-string column) and "\t" (a row
		// of empty strings) — is a real row, and WriteTSV never
		// produces spurious blanks.
		parts, err := splitTSV(line)
		if err != nil {
			return nil, fmt.Errorf("kbase: TSV line %d: %w", lineNo, err)
		}
		tp, err := parseTupleFields(schema, parts)
		if err != nil {
			return nil, fmt.Errorf("kbase: TSV line %d: %v", lineNo, err)
		}
		if _, err := t.Insert(tp); err != nil {
			return nil, fmt.Errorf("kbase: TSV line %d: %w", lineNo, err)
		}
	}
	return t, nil
}

// manifestName is the snapshot directory's table-of-contents file. It
// pins the table set, so stray files in the directory are ignored and
// a truncated snapshot is detected as a missing table file.
const manifestName = "MANIFEST"

// SaveDB snapshots a whole database into a directory: one
// "<table>.tsv" file per relation plus a MANIFEST listing the tables.
// The snapshot is written into a fresh temporary sibling directory
// and swapped into place, so a crash or disk-full mid-save can never
// leave a MANIFEST pointing at a mix of old and new table files — dir
// either keeps the previous consistent snapshot (up to the final
// rename pair) or holds the new one.
func SaveDB(db *DB, dir string) error {
	names := db.Names()
	for _, name := range names {
		if !safeTableFile(name) {
			return fmt.Errorf("kbase: table name %q is not snapshot-safe", name)
		}
	}
	parent := filepath.Dir(dir)
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(parent, filepath.Base(dir)+".tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp) // no-op after the successful rename
	for _, name := range names {
		f, err := os.Create(filepath.Join(tmp, name+".tsv"))
		if err != nil {
			return err
		}
		if err := db.Table(name).WriteTSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		// Disk-backed tables also drop a derived "<table>.zm" sidecar
		// with their page zone maps. It is pure metadata: MANIFEST does
		// not list it, LoadDB never reads it (restores rebuild zones by
		// re-inserting rows), and snapshot byte-equality across backends
		// is defined over the MANIFEST'd .tsv files only.
		if be, ok := db.Table(name).be.(*columnarBackend); ok && be.kind == "disk" {
			if zones := be.pageZones(); len(zones) > 0 {
				zf, err := os.Create(filepath.Join(tmp, name+".zm"))
				if err != nil {
					return err
				}
				if err := writeTableZones(zf, zones); err != nil {
					zf.Close()
					return err
				}
				if err := zf.Close(); err != nil {
					return err
				}
			}
		}
	}
	if err := os.WriteFile(filepath.Join(tmp, manifestName), []byte(strings.Join(names, "\n")+"\n"), 0o644); err != nil {
		return err
	}
	// Swap: retire any existing snapshot, move the new one in. Only a
	// prior snapshot (or an empty directory) is ever displaced —
	// overwriting an arbitrary directory would destroy user data.
	old := dir + ".old"
	if err := os.RemoveAll(old); err != nil {
		return err
	}
	if _, err := os.Stat(dir); err == nil {
		if !IsSnapshot(dir) {
			if rmErr := os.Remove(dir); rmErr != nil { // succeeds only when empty
				return fmt.Errorf("kbase: refusing to overwrite %s: not a snapshot directory", dir)
			}
		} else if err := os.Rename(dir, old); err != nil {
			return err
		}
	}
	if err := os.Rename(tmp, dir); err != nil {
		return err
	}
	return os.RemoveAll(old)
}

// LoadDB restores a database from a SaveDB directory into memory.
func LoadDB(dir string) (*DB, error) {
	return LoadDBWith(dir, MemoryEngine{})
}

// LoadDBWith restores a database from a SaveDB directory through the
// given storage engine. The database takes ownership of the engine.
// On error the partially built database is closed, so a failed
// disk-backed load leaks no spill files.
func LoadDBWith(dir string, engine Engine) (*DB, error) {
	body, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		engine.Close()
		return nil, fmt.Errorf("kbase: reading snapshot manifest: %w", err)
	}
	db := NewDBWith(engine)
	fail := func(err error) (*DB, error) {
		db.Close()
		return nil, err
	}
	for _, name := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if !safeTableFile(name) {
			return fail(fmt.Errorf("kbase: manifest table name %q is not snapshot-safe", name))
		}
		f, err := os.Open(filepath.Join(dir, name+".tsv"))
		if err != nil {
			return fail(err)
		}
		t, err := ReadTSVWith(f, engine)
		f.Close()
		if err != nil {
			return fail(fmt.Errorf("kbase: table %s: %w", name, err))
		}
		if t.Schema().Name != name {
			t.Close()
			return fail(fmt.Errorf("kbase: snapshot file %s.tsv holds table %q", name, t.Schema().Name))
		}
		if err := db.Attach(t); err != nil {
			t.Close()
			return fail(err)
		}
	}
	return db, nil
}

// IsSnapshot reports whether dir looks like a SaveDB snapshot (it has
// a manifest).
func IsSnapshot(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, manifestName))
	return err == nil
}

// safeTableFile accepts table names that map to a plain file inside
// the snapshot directory.
func safeTableFile(name string) bool {
	return name != "" && name != "." && name != ".." &&
		!strings.ContainsAny(name, "/\\\n\t")
}

// EqualDB reports whether two databases hold the same relations with
// the same tuple sets (insertion order is ignored — relations have set
// semantics).
func EqualDB(a, b *DB) bool {
	an, bn := a.Names(), b.Names()
	if len(an) != len(bn) {
		return false
	}
	sort.Strings(an)
	for i, name := range an {
		if bn[i] != name {
			return false
		}
		ta, tb := a.Table(name), b.Table(name)
		if ta.Len() != tb.Len() {
			return false
		}
		cmp := Compare(ta, tb)
		if cmp.NewEntries != 0 || cmp.Overlap != ta.Len() {
			return false
		}
	}
	return true
}
