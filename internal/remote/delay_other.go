//go:build !linux

package remote

import "time"

// sleeper is the portable fallback: runtime timers. Resolution is platform
// dependent (often ~1 ms), so wire-rate emulation is coarse off Linux.
type sleeper struct{}

func newSleeper() *sleeper { return &sleeper{} }

// Close releases the timer.
func (s *sleeper) Close() {}

// Sleep pauses for at least d.
func (s *sleeper) Sleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}
