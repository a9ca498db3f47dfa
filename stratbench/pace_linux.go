//go:build linux

package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer waits for an open-loop client's due times on a timerfd read
// through Go's netpoller. time.Sleep wakes an idle process through the
// netpoller's millisecond timeout, so sends trailed their due time by
// about 0.5 ms at the median; a blocking nanosleep wakes on time but
// its thread keeps its P until the runtime takes it back. A timerfd
// becomes readable on time and its reader parks like any other network
// read, leaving the P to the in-process server.
type pacer struct {
	f  *os.File
	rc syscall.RawConn
}

func newPacer() (*pacer, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	f := os.NewFile(fd, "timerfd")
	rc, err := f.SyscallConn()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &pacer{f: f, rc: rc}, nil
}

// wait returns at t, or at once if t has passed.
func (p *pacer) wait(t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	spec := struct{ interval, value syscall.Timespec }{value: syscall.NsecToTimespec(int64(d))}
	var errno syscall.Errno
	if err := p.rc.Control(func(fd uintptr) {
		_, _, errno = syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	}); err != nil {
		return err
	}
	if errno != 0 {
		return os.NewSyscallError("timerfd_settime", errno)
	}
	var expirations [8]byte
	_, err := p.f.Read(expirations[:])
	return err
}

func (p *pacer) close() error { return p.f.Close() }
