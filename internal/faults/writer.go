package faults

import (
	"errors"
	"io"
)

// ErrInjectedCrash is the terminal error of a CrashWriter that reached
// its byte budget — the injected mid-write "power loss".
var ErrInjectedCrash = errors.New("faults: injected crash mid-write")

// CrashWriter passes bytes through until limit bytes have been written,
// then fails every further Write with ErrInjectedCrash. Wrapped around
// a checkpoint writer it simulates a process dying mid-checkpoint: the
// atomic write protocol must abort, leaving the previous checkpoint
// intact.
type CrashWriter struct {
	w       io.Writer
	limit   int64
	written int64
}

// NewCrashWriter wraps w, crashing after limit bytes. A limit of 0
// crashes on the first write.
func NewCrashWriter(w io.Writer, limit int64) *CrashWriter {
	return &CrashWriter{w: w, limit: limit}
}

// Write forwards p (possibly a prefix of it) until the limit is hit.
func (c *CrashWriter) Write(p []byte) (int, error) {
	if c.written >= c.limit {
		return 0, ErrInjectedCrash
	}
	if rem := c.limit - c.written; int64(len(p)) > rem {
		n, err := c.w.Write(p[:rem])
		c.written += int64(n)
		if err != nil {
			return n, err
		}
		return n, ErrInjectedCrash
	}
	n, err := c.w.Write(p)
	c.written += int64(n)
	return n, err
}
