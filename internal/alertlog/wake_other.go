//go:build !linux

package alertlog

import "errors"

// dirWatch has no implementation off Linux: armWatch always fails and
// the tailer stays on its polling ladder.
type dirWatch struct{}

func armWatch(string, chan<- struct{}) (*dirWatch, error) {
	return nil, errors.New("alertlog: directory notification is not implemented on this platform")
}

func (w *dirWatch) Lost() <-chan struct{} { return nil }

func (w *dirWatch) Close() {}
