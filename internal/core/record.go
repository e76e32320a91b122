package core

import (
	"encoding/json"
	"io"
)

// JSONRecord is the machine-readable per-property record the framework
// emits everywhere results cross a process boundary: `assertcheck
// -json` writes an input-ordered array of these, and the assertd
// serving front end returns the identical schema (and identical bytes
// for identical results) over HTTP. Keep the two in lockstep by
// construction: both go through RecordFromResult + EncodeRecords.
type JSONRecord struct {
	Property     string `json:"property"`
	Engine       string `json:"engine"`
	Verdict      string `json:"verdict"`
	Depth        int    `json:"depth"`
	ElapsedNs    int64  `json:"elapsed_ns"`
	Decisions    int64  `json:"decisions"`
	Conflicts    int64  `json:"conflicts"`
	Implications int64  `json:"implications"`
	MemUnits     int64  `json:"mem_units"`
	Validated    bool   `json:"validated"`
	// Error carries the failure cause for verdict "error" records; it
	// is omitted on every other verdict, so the happy-path bytes are
	// unchanged from before the field existed.
	Error string `json:"error,omitempty"`
}

// RecordFromResult flattens a Result into its wire record.
func RecordFromResult(res Result) JSONRecord {
	return JSONRecord{
		Property:     res.Property,
		Engine:       res.Engine,
		Verdict:      res.Verdict.String(),
		Depth:        res.Depth,
		ElapsedNs:    res.Elapsed.Nanoseconds(),
		Decisions:    res.Metrics.Decisions,
		Conflicts:    res.Metrics.Conflicts,
		Implications: res.Metrics.Implications,
		MemUnits:     res.Metrics.MemUnits,
		Validated:    res.Validated,
		Error:        res.Err,
	}
}

// RecordsFromResults flattens a result batch, preserving input order.
func RecordsFromResults(results []Result) []JSONRecord {
	out := make([]JSONRecord, len(results))
	for i, res := range results {
		out[i] = RecordFromResult(res)
	}
	return out
}

// EncodeRecords writes the canonical indented-JSON rendering of a
// result batch — the exact bytes assertcheck -json prints and assertd
// serves.
func EncodeRecords(w io.Writer, results []Result) error {
	return EncodeJSONRecords(w, RecordsFromResults(results))
}

// EncodeJSONRecords writes already-flattened records with the same
// canonical rendering. The cluster router reassembles per-replica
// record subsets into one batch and re-encodes them through this, so a
// scattered/gathered response stays byte-identical to a single-node
// one.
func EncodeJSONRecords(w io.Writer, records []JSONRecord) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(records)
}
