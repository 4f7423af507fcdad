//go:build !linux

package main

// The idle-class spinners of spin_linux.go need Linux's SCHED_IDLE; elsewhere
// the benchmark runs without them.
func keepAwake() (stop func()) { return func() {} }

func spinIfChild() {}
