package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
)

// Version identifies the behavioural revision of the simulation module: the
// engine, kernel, workloads, power model, and policies together. It
// participates in every sweep cache key, so bumping it invalidates all
// previously cached run results. Bump it whenever a change can alter the
// output of any run — a new power calibration, a workload tweak, a policy
// fix — and leave it alone for pure refactors.
//
// sim/3: the DAQ now covers capture windows that are not whole multiples of
// the sample interval (ceiling division plus a last-sample overhang refund
// in Energy), and the cached Result wire format gained the per-run
// telemetry summary.
//
// sim/4: DAQ energy integration is incremental (daq.Integrate): the
// fault-free path quantizes each power-timeline segment once and weights it
// by reading count instead of resampling every 200 µs window, so energy and
// average-power sums accumulate in segment order rather than sample order.
// The readings themselves are unchanged, but floating-point addition is not
// associative, so totals can differ from sim/3 at ULP scale; run results
// also now carry the DAQ digest (daq.Summary) instead of the materialized
// sample array.
//
// sim/5: the DAQ folds the power timeline into its digest while the run
// produces it, so the instrument's sample drops and glitches are drawn
// during the run instead of after it. They now come from their own fault
// stream rather than continuing the kernel-side fault stream, which
// changes every run whose fault plan enables sample drops or glitches.
// Runs without those faults measure exactly what sim/4 measured.
const Version = "clocksched-sim/5"

// Hasher accumulates named fields into a canonical, order-sensitive
// encoding and digests them into a content-addressed cache key. Two specs
// hash equal exactly when every field was written with the same name and
// value in the same order, so a key is stable across processes and runs.
type Hasher struct {
	b strings.Builder
}

// NewHasherAt starts a key for the given domain (e.g. "clocksched.Result"),
// bound to an explicit version string. Production keys pass Version;
// cache-invalidation tests pass another to prove a version bump changes
// every key.
func NewHasherAt(domain, version string) *Hasher {
	h := &Hasher{}
	h.Field("domain", domain)
	h.Field("version", version)
	return h
}

// Field appends one named value. Values must be plain data (numbers,
// strings, booleans, or values with a deterministic String method):
// pointers and maps have no canonical %v rendering and must be flattened by
// the caller before hashing.
func (h *Hasher) Field(name string, v any) *Hasher {
	fmt.Fprintf(&h.b, "%s=%v;", name, v)
	return h
}

// Sum returns the hex SHA-256 digest of everything written so far.
func (h *Hasher) Sum() string {
	sum := sha256.Sum256([]byte(h.b.String()))
	return hex.EncodeToString(sum[:])
}
