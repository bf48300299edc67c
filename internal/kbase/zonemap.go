package kbase

import (
	"fmt"
	"io"
	"strings"
)

// Zone maps summarize one disk page's rendered column values so a
// filtered read can prove "no row on this page matches" without
// reading, decoding, or caching the page. Per page and column they
// hold a lexicographic min/max over the rendered values plus — when
// the page has few enough distinct values — the complete distinct
// set, which turns the conservative range check into an exact one.
//
// All bounds are over *rendered* values (renderCell), the same domain
// predicates compare in, so the pruning is sound for every column
// type without any numeric-vs-string ordering subtleties. Oversized
// values are truncated to zoneValueCap bytes: a truncated min is
// still a valid lower bound (a prefix never sorts after the
// original), but a truncated max is not a valid upper bound, so the
// column marks maxOK=false and the upper check is skipped.
const (
	// zoneDistinctCap bounds the per-column distinct set; beyond it the
	// set overflows and only min/max pruning applies.
	zoneDistinctCap = 8
	// zoneValueCap bounds stored value length.
	zoneValueCap = 128
)

// colZone summarizes one column of one page.
type colZone struct {
	min, max string
	// maxOK reports that max is a usable upper bound (no truncation).
	maxOK bool
	// distinct is the complete distinct value set unless overflow.
	distinct []string
	// overflow marks the distinct set incomplete (too many values, or
	// a value too long to store exactly).
	overflow bool
}

// pageZone is one page's zones, one per schema column.
type pageZone []colZone

// buildPageZone summarizes rows (non-empty) for a schema.
func buildPageZone(schema Schema, rows []Tuple) pageZone {
	pz := make(pageZone, schema.Arity())
	seen := make([]bool, len(pz))
	for i := range pz {
		pz[i].maxOK = true
	}
	for _, tp := range rows {
		for c := range pz {
			z := &pz[c]
			v := renderCell(tp[c])
			truncated := false
			if len(v) > zoneValueCap {
				// The truncated prefix stays a valid lower bound but not
				// an upper one, and the distinct set can no longer answer
				// membership exactly.
				v = v[:zoneValueCap]
				truncated = true
			}
			if !seen[c] {
				seen[c] = true
				z.min, z.max = v, v
			} else {
				if v < z.min {
					z.min = v
				}
				if v > z.max {
					z.max = v
				}
			}
			if truncated {
				z.maxOK = false
				z.overflow = true
				z.distinct = nil
				continue
			}
			if z.overflow {
				continue
			}
			found := false
			for _, d := range z.distinct {
				if d == v {
					found = true
					break
				}
			}
			if !found {
				if len(z.distinct) >= zoneDistinctCap {
					z.overflow = true
					z.distinct = nil
				} else {
					z.distinct = append(z.distinct, v)
				}
			}
		}
	}
	return pz
}

// mayMatch reports whether any row on the page could satisfy the
// compiled conjunction. Conservative: false only when provably no
// row matches.
func (pz pageZone) mayMatch(m matcher) bool {
	for _, p := range m.preds {
		if p.col >= len(pz) {
			continue
		}
		z := pz[p.col]
		if !z.overflow {
			found := false
			for _, d := range z.distinct {
				if d == p.want {
					found = true
					break
				}
			}
			if !found {
				return false
			}
			continue
		}
		if p.want < z.min {
			return false
		}
		if z.maxOK && p.want > z.max {
			return false
		}
	}
	return true
}

// encodeZoneLine encodes one column zone as an escaped-TSV line:
// maxOK, overflow flags, min, max, then the distinct values.
func encodeZoneLine(z colZone) string {
	flag := func(b bool) string {
		if b {
			return "1"
		}
		return "0"
	}
	fields := []string{flag(z.maxOK), flag(z.overflow), escapeTSV(z.min), escapeTSV(z.max)}
	for _, d := range z.distinct {
		fields = append(fields, escapeTSV(d))
	}
	return strings.Join(fields, "\t")
}

// writeTableZones serializes a whole table's page zones — the derived
// `<table>.zm` sidecar SaveDB drops next to disk-backed tables'
// snapshots. The format is self-describing and ignored by LoadDB
// (restores rebuild zones by re-inserting rows): a `#page N` header
// per page followed by its column lines.
func writeTableZones(w io.Writer, zones []pageZone) error {
	for p, pz := range zones {
		if _, err := fmt.Fprintf(w, "#page %d\n", p); err != nil {
			return err
		}
		for _, z := range pz {
			if _, err := io.WriteString(w, encodeZoneLine(z)+"\n"); err != nil {
				return err
			}
		}
	}
	return nil
}
