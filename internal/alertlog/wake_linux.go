//go:build linux

package alertlog

import (
	"encoding/binary"
	"fmt"
	"os"
	"syscall"
)

// watchMask covers everything a live log does to its directory: appends
// (IN_MODIFY), rotation (IN_CREATE; IN_MOVED_TO for writers that rename
// a segment into place) and pruning (IN_DELETE).
const watchMask = syscall.IN_MODIFY | syscall.IN_CREATE | syscall.IN_DELETE | syscall.IN_MOVED_TO

// dirWatch is one armed inotify watch on a log directory. Its goroutine
// turns every kernel event — queue overflow included — into a token on
// the wake channel: an event only ever means "poll now", so nothing
// about it is kept. The descriptor is non-blocking and wrapped in an
// os.File, so the blocked Read parks on the runtime netpoller instead
// of a thread and Close unblocks it.
type dirWatch struct {
	f *os.File
	// lost is closed when the goroutine exits: Close was called, the
	// read failed, or the kernel dropped the watch (IN_IGNORED — the
	// directory was removed or its filesystem unmounted).
	lost chan struct{}
}

// armWatch watches dir, sending a coalesced token on wake (capacity 1)
// for every batch of events.
func armWatch(dir string, wake chan<- struct{}) (*dirWatch, error) {
	fd, err := syscall.InotifyInit1(syscall.IN_NONBLOCK | syscall.IN_CLOEXEC)
	if err != nil {
		return nil, fmt.Errorf("alertlog: inotify_init1: %w", err)
	}
	if _, err := syscall.InotifyAddWatch(fd, dir, watchMask); err != nil {
		syscall.Close(fd)
		return nil, fmt.Errorf("alertlog: watching %s: %w", dir, err)
	}
	w := &dirWatch{f: os.NewFile(uintptr(fd), "inotify:"+dir), lost: make(chan struct{})}
	go w.run(wake)
	return w, nil
}

func (w *dirWatch) run(wake chan<- struct{}) {
	defer close(w.lost)
	// Room for a burst of events; a short buffer only costs extra reads.
	buf := make([]byte, 4096)
	for {
		n, err := w.f.Read(buf)
		if err != nil {
			return
		}
		select {
		case wake <- struct{}{}:
		default: // a token is already waiting; the poll it causes covers this event too
		}
		if watchDropped(buf[:n]) {
			return
		}
	}
}

// watchDropped reports whether the event records in b include
// IN_IGNORED, after which the watch delivers nothing more.
func watchDropped(b []byte) bool {
	for len(b) >= syscall.SizeofInotifyEvent {
		mask := binary.NativeEndian.Uint32(b[4:8])
		nameLen := binary.NativeEndian.Uint32(b[12:16])
		if mask&syscall.IN_IGNORED != 0 {
			return true
		}
		next := syscall.SizeofInotifyEvent + int(nameLen)
		if next > len(b) {
			break
		}
		b = b[next:]
	}
	return false
}

// Lost is closed once the watch delivers no more events.
func (w *dirWatch) Lost() <-chan struct{} { return w.lost }

// Close disarms the watch and waits for its goroutine to exit.
func (w *dirWatch) Close() {
	w.f.Close()
	<-w.lost
}
