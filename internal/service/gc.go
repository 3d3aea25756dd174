package service

// Retention GC: an unattended daemon accumulates terminal jobs — result
// bytes, cell journals, manifest records — until the disk fills and every
// durable write starts failing. The reaper bounds that growth two ways
// (job count and byte footprint), deleting only terminal jobs and always
// oldest-first, then compacts the manifest so deleted jobs' records do not
// grow the WAL forever.
//
// Compaction is the one moment the manifest — the daemon's root of trust —
// is rewritten rather than appended, so it is guarded: a complete verified
// snapshot (manifest.bak) is written first, and only then is manifest.wal
// rewritten and verified. A crash or injected fault at any point leaves
// either a complete wal, or a complete bak that the next boot merges back
// in (union of submits, terminal-wins on states). The invariant the chaos
// suite asserts: an acknowledged job's submit record is never lost.

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"clocksched/internal/journal"
)

// GCStats reports one reaper pass.
type GCStats struct {
	// JobsDeleted counts terminal jobs removed (dirs, records, table
	// entries).
	JobsDeleted int
	// BytesFreed is the on-disk footprint of the deleted job dirs.
	BytesFreed int64
	// DataBytes is the jobs/ footprint after the pass.
	DataBytes int64
	// Compacted reports whether the manifest was rewritten.
	Compacted bool
}

// gcLoop runs GC on the configured cadence until the server stops.
func (s *Server) gcLoop() {
	defer s.gcWg.Done()
	t := time.NewTicker(s.cfg.GCInterval)
	defer t.Stop()
	for {
		select {
		case <-s.gcStop:
			return
		case <-t.C:
			s.GC()
		}
	}
}

// GC runs one retention pass: terminal jobs beyond Config.RetainResults
// are deleted oldest-first, then more oldest-terminal jobs until the
// jobs/ footprint fits Config.MaxDataBytes. Queued, running, and
// preempted jobs are never candidates — retention can only ever discard
// finished work, not accepted work. If anything was deleted the manifest
// is compacted (see compactManifestLocked). Safe to call at any time,
// including with both limits unset (it then only measures).
func (s *Server) GC() (GCStats, error) {
	var st GCStats
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return st, nil
	}

	// Snapshot, oldest-first (s.order is submission order), and measure.
	var terminals []*job
	sizes := map[string]int64{}
	var total int64
	for _, id := range s.order {
		j := s.jobs[id]
		j.mu.Lock()
		isTerminal := j.state.terminal()
		j.mu.Unlock()
		sz := dirSize(j.dir)
		sizes[id] = sz
		total += sz
		if isTerminal {
			terminals = append(terminals, j)
		}
	}

	victims := map[string]*job{}
	if n := s.cfg.RetainResults; n > 0 && len(terminals) > n {
		for _, j := range terminals[:len(terminals)-n] {
			victims[j.id] = j
			total -= sizes[j.id]
		}
	}
	if max := s.cfg.MaxDataBytes; max > 0 {
		for _, j := range terminals {
			if total <= max {
				break
			}
			if _, dup := victims[j.id]; dup {
				continue
			}
			victims[j.id] = j
			total -= sizes[j.id]
		}
	}
	st.DataBytes = total
	s.reg.Gauge(mDataBytes).Set(float64(total))
	s.reg.Counter(mGCRuns).Inc()
	if len(victims) == 0 {
		return st, nil
	}

	keep := s.order[:0]
	for _, id := range s.order {
		if _, gone := victims[id]; gone {
			delete(s.jobs, id)
			st.JobsDeleted++
			st.BytesFreed += sizes[id]
			os.RemoveAll(s.jobDir(id))
			continue
		}
		keep = append(keep, id)
	}
	s.order = keep
	s.reg.Counter(mGCJobsDeleted).Add(int64(st.JobsDeleted))
	s.reg.Counter(mGCBytesDeleted).Add(st.BytesFreed)

	err := s.compactManifestLocked()
	if err == nil {
		st.Compacted = true
	}
	return st, err
}

// compactManifestLocked rewrites the manifest to exactly the live job
// table (one submit record per job, plus its terminal record). The caller
// holds s.mu — or, during recovery, has the server to itself.
//
// Crash-safety protocol, every durable step through the injectable FS:
//
//  1. Write the complete record set to manifest.bak and verify it by
//     replay. Failure aborts the compaction with manifest.wal untouched.
//  2. Close the writer, rewrite manifest.wal, verify by replay.
//  3. Reopen the writer. On a verified rewrite the backup is dropped; on
//     failure it is kept, and the next boot (or the recovery path) merges
//     wal ∪ bak — so whichever file is torn, the union is complete.
func (s *Server) compactManifestLocked() error {
	s.manifestMu.Lock()
	defer s.manifestMu.Unlock()

	var payloads [][]byte
	// The meta record pins the id counter: deleted jobs' submit records
	// are about to vanish, and a rebooted daemon must not re-issue their
	// ids.
	meta, err := json.Marshal(manifestRecord{Op: "meta", NextID: s.nextID})
	if err != nil {
		return fmt.Errorf("service: compacting manifest: %w", err)
	}
	payloads = append(payloads, meta)
	for _, id := range s.order {
		j := s.jobs[id]
		j.mu.Lock()
		state, errText := j.state, j.errText
		j.mu.Unlock()
		sub, err := json.Marshal(manifestRecord{
			Op: "submit", ID: id, Spec: &j.spec,
			Priority: j.priority, Client: j.client,
		})
		if err != nil {
			return fmt.Errorf("service: compacting manifest: %w", err)
		}
		payloads = append(payloads, sub)
		if state.terminal() {
			rec, err := json.Marshal(manifestRecord{Op: "state", ID: id, State: state, Error: errText})
			if err != nil {
				return fmt.Errorf("service: compacting manifest: %w", err)
			}
			payloads = append(payloads, rec)
		}
	}

	// Step 1: the safety copy must be complete and verified before the
	// real manifest is touched.
	if err := rewriteVerified(s.manifestBakPath(), payloads, s.cfg.FS); err != nil {
		os.Remove(s.manifestBakPath())
		return fmt.Errorf("service: manifest backup: %w", err)
	}

	// Step 2+3: rewrite the manifest and reopen it for appending whatever
	// happens — a daemon with no appendable manifest cannot accept work.
	if err := s.manifest.Close(); err != nil {
		s.reg.Counter(mManifestErrs).Inc()
	}
	rewriteErr := rewriteVerified(s.manifestPath(), payloads, s.cfg.FS)
	w, _, openErr := journal.Open(s.manifestPath(), true, nil, s.cfg.FS)
	if openErr != nil {
		return fmt.Errorf("service: reopening manifest after compaction: %w", openErr)
	}
	s.manifest = w
	if rewriteErr != nil {
		// The wal may be torn; the verified bak guards it until a later
		// pass (or the next boot) converges.
		return fmt.Errorf("service: manifest compaction: %w", rewriteErr)
	}
	os.Remove(s.manifestBakPath())
	s.reg.Counter(mCompactions).Inc()
	return nil
}

// rewriteVerified rewrites path to exactly the payloads and confirms by
// replay that every record landed intact — an injected torn rename leaves
// a CRC-valid prefix, which replays clean but short, so the count check is
// what catches it.
func rewriteVerified(path string, payloads [][]byte, fs journal.FS) error {
	if err := journal.Rewrite(path, payloads, fs); err != nil {
		return err
	}
	n := 0
	if _, err := journal.ReplayFile(path, func([]byte) error { n++; return nil }); err != nil {
		return err
	}
	if n != len(payloads) {
		return fmt.Errorf("journal: rewrite verification: %d of %d records readable", n, len(payloads))
	}
	return nil
}

// dirSize sums the regular files under dir; a missing dir is 0 bytes.
func dirSize(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			total += info.Size()
		}
		return nil
	})
	return total
}
