package journal_test

// An external test package: fault imports sim, whose telemetry imports
// journal, so an in-package test importing fault would form a cycle.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clocksched/internal/fault"
	"clocksched/internal/journal"
)

// TestJournalWriteFileUnderDiskFaults drives WriteFile through a seeded
// disk injector: every success leaves exactly the new bytes, every failure
// wraps fault.ErrDiskFault and — unless the rename tore — leaves the
// previous bytes, and no temporary file outlives a call.
func TestJournalWriteFileUnderDiskFaults(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "result.bin")
	in, err := fault.NewDiskInjector(&fault.DiskPlan{
		WriteErrProb:   0.1,
		ShortWriteProb: 0.1,
		SyncErrProb:    0.1,
		ENOSPCProb:     0.1,
		TornRenameProb: 0.1,
	}, 7)
	if err != nil {
		t.Fatal(err)
	}

	var prev []byte
	ok := 0
	for i := 0; i < 400; i++ {
		b := bytes.Repeat([]byte(fmt.Sprintf("write %d;", i)), 1+i%37)
		torn := in.Counts().TornRenames
		err := journal.WriteFile(path, b, in)
		got, rerr := os.ReadFile(path)
		if rerr != nil && !errors.Is(rerr, os.ErrNotExist) {
			t.Fatal(rerr)
		}
		switch {
		case err == nil:
			ok++
			if !bytes.Equal(got, b) {
				t.Fatalf("write %d succeeded but the file holds %d bytes, want %d", i, len(got), len(b))
			}
			prev = b
		case !errors.Is(err, fault.ErrDiskFault):
			t.Fatalf("write %d: %v does not wrap ErrDiskFault", i, err)
		case in.Counts().TornRenames > torn:
			if !bytes.HasPrefix(b, got) {
				t.Fatalf("write %d: torn rename left bytes that are not a prefix of the new content", i)
			}
			prev = got
		case !bytes.Equal(got, prev):
			t.Fatalf("write %d failed (%v) but changed the file", i, err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if strings.Contains(e.Name(), ".tmp-") {
				t.Fatalf("write %d left %s behind", i, e.Name())
			}
		}
	}

	c := in.Counts()
	if c.WriteErrs == 0 || c.ShortWrites == 0 || c.SyncErrs == 0 || c.ENOSPCs == 0 || c.TornRenames == 0 {
		t.Fatalf("not every fault kind fired: %s", c)
	}
	if ok == 0 || ok+c.Total() != 400 {
		t.Fatalf("%d successes and %d faults over 400 writes", ok, c.Total())
	}
}
