package metrics

import "time"

// epoch anchors Now and Elapsed. It carries a monotonic reading, so every
// time derived from it does too.
var epoch = time.Now()

// Now returns the current time for per-commit stamps: one monotonic clock
// read, where time.Now also reads the wall clock. Sub and Since on the
// result use the monotonic reading, so durations between two stamps — or
// between a stamp and time.Since — mean what they mean with time.Now. The
// wall reading is the epoch's plus the monotonic time elapsed since, so it
// does not follow later wall-clock steps; nothing here formats or
// compares it.
func Now() time.Time { return epoch.Add(time.Since(epoch)) }

// Elapsed returns the monotonic time since the epoch Now counts from.
func Elapsed() time.Duration { return time.Since(epoch) }
