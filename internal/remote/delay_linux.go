//go:build linux

package remote

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// Wire-rate emulation needs sleeps of tens to hundreds of microseconds
// that cooperate with the Go scheduler. Neither standard option works
// well here:
//
//   - time.Sleep (runtime timers) wakes via the netpoller's epoll timeout,
//     which has millisecond granularity — a 53 us sleep becomes ~1 ms;
//   - a raw nanosleep blocks the OS thread, and on a single-CPU machine
//     the P is only handed off when sysmon notices, which can take many
//     milliseconds once the process has been idle.
//
// A timerfd read through the runtime poller avoids both: the goroutine
// parks immediately (releasing the P to the client goroutines) and the
// timerfd's hrtimer fires an epoll *event*, waking with microsecond-class
// latency.

// sleeper is a reusable precise timer for one goroutine at a time. Its raw
// conn, arming closure, timer spec and read buffer are made once, so a
// Sleep allocates nothing. A nil *sleeper falls back to a raw nanosleep.
type sleeper struct {
	f     *os.File
	rc    syscall.RawConn
	arm   func(fd uintptr) // timerfd_settime(fd, 0, &spec): one-shot, relative
	spec  [4]int64         // itimerspec{interval: 0, value: d}
	errno syscall.Errno    // arm's result
	buf   [8]byte          // the expiry count a fired timer reads
}

const (
	clockMonotonic = 1
	tfdNonblock    = 0x800
	tfdCloexec     = 0x80000
)

// newSleeper returns a timerfd-backed sleeper, or nil if timerfd is
// unavailable (callers then get the nanosleep fallback).
func newSleeper() *sleeper {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE,
		clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil
	}
	s := &sleeper{f: os.NewFile(fd, "timerfd")}
	rc, err := s.f.SyscallConn()
	if err != nil {
		_ = s.f.Close()
		return nil
	}
	s.rc = rc
	s.arm = func(fd uintptr) {
		_, _, s.errno = syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME,
			fd, 0, uintptr(unsafe.Pointer(&s.spec)), 0, 0, 0)
	}
	return s
}

// Close releases the timer.
func (s *sleeper) Close() {
	if s != nil {
		_ = s.f.Close()
	}
}

// Sleep pauses for at least d, with microsecond-class precision.
func (s *sleeper) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	if s == nil {
		preciseSleep(d)
		return
	}
	s.spec[2] = int64(d / time.Second)
	s.spec[3] = int64(d % time.Second)
	if err := s.rc.Control(s.arm); err != nil || s.errno != 0 {
		preciseSleep(d)
		return
	}
	_, _ = s.f.Read(s.buf[:]) // parks in the poller until the timer fires
}

// preciseSleep blocks the calling OS thread with a raw nanosleep: better
// than runtime timers when timerfd is unavailable.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	_ = syscall.Nanosleep(&ts, nil)
}
