package main

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
)

// TestMain lets the test binary stand in for the command: with
// EXPERIMENTS_RUN_MAIN set it runs main with the given arguments, which is
// how the kill test below launches a real experiments process.
func TestMain(m *testing.M) {
	if os.Getenv("EXPERIMENTS_RUN_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

func experiments(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "EXPERIMENTS_RUN_MAIN=1")
	return cmd
}

// TestTable2KillAndResume SIGKILLs `experiments -only table2` after its
// first committed cell and relaunches it with -resume: the relaunch must
// report the recovered cells, start its progress at the replayed count,
// and write a table byte-identical to the committed results/table2.txt.
func TestTable2KillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	out := t.TempDir()
	args := []string{"-out", out, "-only", "table2", "-workers", "1", "-progress"}

	child := experiments(args...)
	stderr, err := child.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := child.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stderr)
	for sc.Scan() && !strings.HasPrefix(sc.Text(), "experiments: cell ") {
	}
	if err := child.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	child.Wait()
	if ws, ok := child.ProcessState.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() {
		t.Fatalf("child finished before the kill: %v", child.ProcessState)
	}
	if _, err := os.Stat(filepath.Join(out, "table2.txt")); !os.IsNotExist(err) {
		t.Fatalf("killed run left a table behind (stat err %v)", err)
	}

	var resumeErr bytes.Buffer
	resume := experiments(append(args, "-resume")...)
	resume.Stderr = &resumeErr
	if err := resume.Run(); err != nil {
		t.Fatalf("resume: %v\n%s", err, resumeErr.String())
	}
	m := regexp.MustCompile(`resume: (\d+) cell\(s\) recovered from journal\nexperiments: cell (\d+)/50`).
		FindStringSubmatch(resumeErr.String())
	if m == nil {
		t.Fatalf("resume stderr lacks the recovery report and first progress line:\n%s", resumeErr.String())
	}
	recovered, _ := strconv.Atoi(m[1])
	first, _ := strconv.Atoi(m[2])
	if recovered < 1 || first != recovered {
		t.Errorf("recovered %d cell(s), first progress count %d: want equal and positive", recovered, first)
	}

	got, err := os.ReadFile(filepath.Join(out, "table2.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "results", "table2.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("resumed table differs from results/table2.txt:\n--- resumed\n%s\n--- committed\n%s", got, want)
	}
}
