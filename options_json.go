package mlpart

// Canonical Options serialization: a stable JSON encoding of the
// result-affecting configuration, plus a content fingerprint over it.
// This is the wire format the mlpartd service accepts for job options
// and the second half of its result-cache key (the first half is the
// hypergraph content hash); later PRs can reuse it anywhere a run
// configuration must travel between processes.
//
// Canonical form: defaults are materialized (normalize), fields are
// emitted in the fixed order of optionsJSON, and the encoding carries
// no insignificant whitespace beyond encoding/json's choices — so two
// semantically equal Options always produce byte-identical canonical
// JSON. Decoding is strict: unknown fields, NaN or infinite floats,
// and unknown engine names are rejected, never silently dropped.
//
// Fingerprint excludes Parallelism deliberately: the multi-start
// supervisor guarantees bit-identical results for every Parallelism
// value, so two jobs differing only in worker count must share a
// cache entry. Runtime-only knobs that cannot change the solution
// (Audit, Inject, Telemetry) are likewise excluded; Audit is still
// serialized because it changes the error surface, but it does not
// contribute to the fingerprint.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"mlpart/internal/fm"
)

// optionsJSON is the canonical wire layout. Field order is the
// canonical order; every field is always emitted.
type optionsJSON struct {
	Engine           string  `json:"engine"`
	MatchingRatio    float64 `json:"matching_ratio"`
	Threshold        int     `json:"threshold"`
	Tolerance        float64 `json:"tolerance"`
	Seed             int64   `json:"seed"`
	Starts           int     `json:"starts"`
	Parallelism      int     `json:"parallelism"`
	IntraParallelism int     `json:"intra_parallelism"`
	MaxRetries       int     `json:"max_retries"`
	AttemptTimeoutNS int64   `json:"attempt_timeout_ns"`
	Audit            bool    `json:"audit"`
}

// EngineName returns the canonical lowercase name of an engine, as
// accepted by ParseEngine and the CLI -engine flag.
func EngineName(e fm.Engine) (string, error) {
	switch e {
	case EngineFM:
		return "fm", nil
	case EngineCLIP:
		return "clip", nil
	case EnginePROP:
		return "prop", nil
	case EngineCLIPPROP:
		return "clprop", nil
	}
	return "", fmt.Errorf("mlpart: unknown engine %d", int(e))
}

// ParseEngine parses a canonical engine name (clip, fm, prop,
// clprop) — the inverse of EngineName and the parser behind the CLI
// -engine flag and the options JSON "engine" field.
func ParseEngine(s string) (fm.Engine, error) {
	switch s {
	case "clip":
		return EngineCLIP, nil
	case "fm":
		return EngineFM, nil
	case "prop":
		return EnginePROP, nil
	case "clprop":
		return EngineCLIPPROP, nil
	}
	return 0, fmt.Errorf("mlpart: unknown engine %q (want clip, fm, prop, or clprop)", s)
}

// checkFinite rejects the float values JSON cannot round-trip and the
// pipeline cannot consume.
func checkFinite(name string, v float64) error {
	if math.IsNaN(v) {
		return fmt.Errorf("mlpart: options %s is NaN", name)
	}
	if math.IsInf(v, 0) {
		return fmt.Errorf("mlpart: options %s is infinite", name)
	}
	return nil
}

// canonical maps o onto the wire layout after materializing defaults,
// so semantically equal Options encode byte-identically.
func (o Options) canonical() (optionsJSON, error) {
	if err := checkFinite("matching_ratio", o.MatchingRatio); err != nil {
		return optionsJSON{}, err
	}
	if err := checkFinite("tolerance", o.Tolerance); err != nil {
		return optionsJSON{}, err
	}
	n, err := o.normalize()
	if err != nil {
		return optionsJSON{}, err
	}
	name, err := EngineName(n.Engine)
	if err != nil {
		return optionsJSON{}, err
	}
	return optionsJSON{
		Engine:           name,
		MatchingRatio:    n.MatchingRatio,
		Threshold:        n.Threshold,
		Tolerance:        n.Tolerance,
		Seed:             n.Seed,
		Starts:           n.Starts,
		Parallelism:      n.Parallelism,
		IntraParallelism: n.IntraParallelism,
		MaxRetries:       n.MaxRetries,
		AttemptTimeoutNS: n.AttemptTimeout.Nanoseconds(),
		Audit:            n.Audit,
	}, nil
}

// CanonicalJSON returns the canonical JSON encoding of o's
// serializable configuration. Defaults are materialized first, so an
// explicit Options{MatchingRatio: 0.5} and the zero value encode to
// the same bytes. Runtime-only fields (Inject, Telemetry) are not
// part of the format.
func (o Options) CanonicalJSON() ([]byte, error) {
	c, err := o.canonical()
	if err != nil {
		return nil, err
	}
	return json.Marshal(c)
}

// ParseOptionsJSON decodes an options document produced by
// CanonicalJSON (or hand-written in the same schema). Decoding is
// strict: unknown fields are an error (a misspelled knob must never
// be silently ignored), engine names are validated, and NaN or
// infinite floats are rejected. Absent fields take their zero value
// and therefore their documented defaults.
func ParseOptionsJSON(data []byte) (Options, error) {
	var c optionsJSON
	// An absent engine selects the Go API's zero value (EngineFM),
	// keeping JSON and struct semantics aligned.
	c.Engine = "fm"
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return Options{}, fmt.Errorf("mlpart: options JSON: %w", err)
	}
	// Anything but whitespace after the document — a second document,
	// or a stray closing delimiter, in front of which More reports
	// false — is malformed input, not extra configuration.
	if _, err := dec.Token(); err != io.EOF {
		return Options{}, fmt.Errorf("mlpart: options JSON: trailing data after document")
	}
	engine, err := ParseEngine(c.Engine)
	if err != nil {
		return Options{}, err
	}
	if err := checkFinite("matching_ratio", c.MatchingRatio); err != nil {
		return Options{}, err
	}
	if err := checkFinite("tolerance", c.Tolerance); err != nil {
		return Options{}, err
	}
	if c.AttemptTimeoutNS < 0 {
		return Options{}, fmt.Errorf("mlpart: options JSON: negative attempt_timeout_ns %d", c.AttemptTimeoutNS)
	}
	o := Options{
		Engine:           engine,
		MatchingRatio:    c.MatchingRatio,
		Threshold:        c.Threshold,
		Tolerance:        c.Tolerance,
		Seed:             c.Seed,
		Starts:           c.Starts,
		Parallelism:      c.Parallelism,
		IntraParallelism: c.IntraParallelism,
		MaxRetries:       c.MaxRetries,
		AttemptTimeout:   time.Duration(c.AttemptTimeoutNS),
		Audit:            c.Audit,
	}
	// Surface range errors (negative starts/parallelism) at decode
	// time rather than at run time.
	if _, err := o.normalize(); err != nil {
		return Options{}, err
	}
	return o, nil
}

// Fingerprint returns a stable hex digest of o's result-affecting
// configuration: the sha256 of the canonical JSON with Parallelism and
// IntraParallelism forced to zero (results are bit-identical for every
// worker count, and IntraParallelism is ignored, so neither may split
// cache entries). Two
// Options with equal fingerprints — run on the same hypergraph and
// block count — produce byte-identical partitions.
func (o Options) Fingerprint() (string, error) {
	c, err := o.canonical()
	if err != nil {
		return "", err
	}
	c.Parallelism = 0
	c.IntraParallelism = 0
	// Audit only adds invariant checks — it can never change the
	// solution — so audited and unaudited runs share a fingerprint.
	c.Audit = false
	data, err := json.Marshal(c)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}
