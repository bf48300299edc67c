package main

import (
	"fmt"
	"math"
	"reflect"

	"repro/internal/core"
	"repro/internal/labeling"
)

// The output checks. Each is a pure function of what the program
// returned, so the tests can feed it a deliberately corrupted output
// and see it fail.

// checkPass compares one batch pass against the first pass of the
// same run: the batch run is deterministic per seed, so every pass
// must predict the same tuples in the same order and score the same
// F1.
func checkPass(first, got core.Result) error {
	if got.Quality.F1 != first.Quality.F1 {
		return fmt.Errorf("pass F1 %v differs from the first pass's %v", got.Quality.F1, first.Quality.F1)
	}
	if len(got.Predicted) != len(first.Predicted) {
		return fmt.Errorf("pass predicted %d tuples, the first pass %d", len(got.Predicted), len(first.Predicted))
	}
	for i := range got.Predicted {
		if got.Predicted[i].Key() != first.Predicted[i].Key() {
			return fmt.Errorf("predicted tuple %d is %q, the first pass had %q", i, got.Predicted[i].Key(), first.Predicted[i].Key())
		}
	}
	return nil
}

// checkF1 rejects a quality figure that is not a proper F1 or that is
// zero, which would mean the pipeline extracted nothing right.
func checkF1(f1 float64) error {
	if math.IsNaN(f1) || f1 <= 0 || f1 > 1 {
		return fmt.Errorf("F1 %v is outside (0, 1]", f1)
	}
	return nil
}

// checkIngestEpoch checks one /ingest reply: status 200, and an epoch
// exactly one past the previous publication's.
func checkIngestEpoch(status int, prevEpoch, epoch uint64) error {
	if status != 200 {
		return fmt.Errorf("ingest returned status %d", status)
	}
	if epoch != prevEpoch+1 {
		return fmt.Errorf("ingest published epoch %d after epoch %d", epoch, prevEpoch)
	}
	return nil
}

// checkReadEpoch checks that a reader never sees epochs go backwards.
func checkReadEpoch(lastSeen, epoch uint64) error {
	if epoch < lastSeen {
		return fmt.Errorf("read served epoch %d after epoch %d had been served", epoch, lastSeen)
	}
	return nil
}

// checkFilteredRows checks that every row of a filtered /kb reply has
// want in column col, and that the reply's total covers its rows.
func checkFilteredRows(columns []string, tuples [][]any, total int, col, want string) error {
	idx := -1
	for i, c := range columns {
		if c == col {
			idx = i
		}
	}
	if idx < 0 {
		return fmt.Errorf("filtered read on %q: reply has no such column (%v)", col, columns)
	}
	if total < len(tuples) {
		return fmt.Errorf("filtered read on %s=%s: total %d is below the %d rows returned", col, want, total, len(tuples))
	}
	for _, tp := range tuples {
		if idx >= len(tp) || fmt.Sprint(tp[idx]) != want {
			return fmt.Errorf("filtered read on %s=%s returned row %v", col, want, tp)
		}
	}
	return nil
}

// checkSameLabels checks that the development loop on the evicting
// disk store ends with the marginals and LF metrics of the same LF
// script run on a fully resident memory store, bit for bit.
func checkSameLabels(gotMarg, wantMarg []float64, gotM, wantM labeling.Metrics) error {
	if len(gotMarg) != len(wantMarg) {
		return fmt.Errorf("%d marginals, the memory store has %d", len(gotMarg), len(wantMarg))
	}
	for i := range gotMarg {
		if math.Float64bits(gotMarg[i]) != math.Float64bits(wantMarg[i]) {
			return fmt.Errorf("marginal %d is %v, the memory store has %v", i, gotMarg[i], wantMarg[i])
		}
	}
	if !reflect.DeepEqual(gotM, wantM) {
		return fmt.Errorf("LF metrics %+v differ from the memory store's %+v", gotM, wantM)
	}
	return nil
}
