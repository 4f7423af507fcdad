//go:build linux

package main

import (
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// On a virtual machine an idle vCPU halts, and waking it costs tens of
// microseconds that vary with the host's mood. Workloads that sleep between
// messages (atm-pair's paced wire, any fault that parks both clients) then
// time the hypervisor: identical runs of atm-pair differed by 15 % in latency
// and 25 % in CPU per op. So while a workload is measured, the benchmark runs
// one busy child per CPU in the SCHED_IDLE class: it only ever gets a CPU that
// would otherwise halt and is preempted the instant real work wakes, and with
// it the same runs agree within a few percent. The children are processes, not
// threads, so cpu_us_per_op (RUSAGE_SELF) never counts their spinning.

// spinEnv marks a child as a spinner and names the CPU it pins itself to.
const spinEnv = "GMSBENCH_SPIN_CPU"

const schedIdle = 5 // SCHED_IDLE in <sched.h>

// keepAwake starts the spinners and returns the function that stops them and
// waits until each has ended. A spinner that cannot start is skipped: the run
// is then merely noisier.
func keepAwake() (stop func()) {
	exe, err := os.Executable()
	if err != nil {
		return func() {}
	}
	type child struct {
		cmd   *exec.Cmd
		stdin io.WriteCloser
	}
	var children []child
	for cpu := 0; cpu < runtime.NumCPU(); cpu++ {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), spinEnv+"="+strconv.Itoa(cpu))
		stdin, err := cmd.StdinPipe()
		if err != nil {
			continue
		}
		if err := cmd.Start(); err != nil {
			continue
		}
		children = append(children, child{cmd, stdin})
	}
	return func() {
		for _, c := range children {
			_ = c.stdin.Close() // the spinner exits when its stdin reaches EOF
		}
		for _, c := range children {
			_ = c.cmd.Wait()
		}
	}
}

// spinIfChild turns the process into a spinner when the parent asked for one.
// It returns only in a process that is not a spinner.
func spinIfChild() {
	v, ok := os.LookupEnv(spinEnv)
	if !ok {
		return
	}
	// The scheduling class and the affinity are per thread: stay on this one.
	runtime.LockOSThread()
	if cpu, err := strconv.Atoi(v); err == nil && cpu >= 0 && cpu < 64 {
		mask := uint64(1) << cpu
		_, _, _ = syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	}
	var param struct{ priority int32 }
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		_ = syscall.Setpriority(syscall.PRIO_PROCESS, 0, 19) // the next best thing
	}
	// Exit when the parent closes the pipe — or dies, which closes it too, so
	// a killed benchmark leaves no spinner behind.
	var done atomic.Bool
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin)
		done.Store(true)
	}()
	// Spin through the kernel: with lazy preemption (Linux 6.13+) a wake-up
	// from another CPU does not interrupt a task spinning in user mode until
	// the next tick, up to 4 ms away; a yield is a reschedule point at most a
	// microsecond away.
	for !done.Load() {
		_, _, _ = syscall.RawSyscall(syscall.SYS_SCHED_YIELD, 0, 0, 0)
	}
	os.Exit(0)
}
