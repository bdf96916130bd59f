// Command rssexec runs a command with its own standard streams and
// writes "<wall nanoseconds> <peak resident kilobytes>" of the command to
// file descriptor 3:
//
//	rssexec esetlm -json ... 3>report
//
// The kernel starts a child's peak resident set at the high-water mark of
// the memory it was spawned from (Go spawns children with vfork, and exec
// folds the shared memory's high-water mark into the child's accounting),
// so a child spawned straight from the benchmark reports at least the
// benchmark's own size. This helper stays a few megabytes small, so what
// it reports is the command's own peak.
package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: rssexec command [args...] 3>report")
		os.Exit(2)
	}
	cmd := exec.Command(os.Args[1], os.Args[2:]...)
	cmd.Stdin, cmd.Stdout, cmd.Stderr = os.Stdin, os.Stdout, os.Stderr
	t0 := time.Now()
	err := cmd.Run()
	d := time.Since(t0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rssexec:", err)
		var ee *exec.ExitError
		if errors.As(err, &ee) && ee.ExitCode() > 0 {
			os.Exit(ee.ExitCode())
		}
		os.Exit(1)
	}
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if _, err := fmt.Fprintf(os.NewFile(3, "report"), "%d %d\n", d.Nanoseconds(), ru.Maxrss); err != nil {
		fmt.Fprintln(os.Stderr, "rssexec: report:", err)
		os.Exit(1)
	}
}
