package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a Linux CPU affinity mask for up to 1024 CPUs.
type cpuMask [16]uint64

func getAffinity(tid int) (cpuMask, error) {
	var m cpuMask
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return m, e
	}
	return m, nil
}

func setAffinity(tid int, m cpuMask) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return e
	}
	return nil
}

// setProcessAffinity sets m on every thread of pid. A thread inherits
// the mask of the thread that creates it, so the walk repeats until it
// finds no thread it has not set.
func setProcessAffinity(pid int, m cpuMask) error {
	done := map[int]bool{}
	for {
		ents, err := os.ReadDir(filepath.Join("/proc", strconv.Itoa(pid), "task"))
		if err != nil {
			return err
		}
		fresh := false
		for _, e := range ents {
			tid, err := strconv.Atoi(e.Name())
			if err != nil || done[tid] {
				continue
			}
			// A thread that exited since the listing is no error.
			if err := setAffinity(tid, m); err != nil && err != syscall.ESRCH {
				return fmt.Errorf("pid %d thread %d: %w", pid, tid, err)
			}
			done[tid], fresh = true, true
		}
		if !fresh {
			return nil
		}
	}
}

// pinOneCPU moves this process and the daemons onto one CPU, the lowest
// this process may use, and returns the call that gives every one of
// them back its whole mask.
//
// A session is a ping-pong between the client and the daemon. Spread
// over two vCPUs, each hop wakes the other, idle vCPU, and on a shared
// host that wake waits for the hypervisor: on the reference VM such runs
// read session_p50_ms 21% higher, and their session rate spread five
// times wider, than runs on one CPU (README, CPU placement). The daemons
// start, build their index and choose their shard count (one per CPU,
// from the mask they start with) before this call, so that
// configuration and setup_s are those of an unpinned daemon.
func pinOneCPU(ds ...*daemon) (unpin func(), err error) {
	self := os.Getpid()
	all, err := getAffinity(self)
	if err != nil {
		return nil, err
	}
	var one cpuMask
	for i, w := range all {
		if w != 0 {
			one[i] = w & -w
			break
		}
	}
	pids := []int{self}
	for _, d := range ds {
		pids = append(pids, d.cmd.Process.Pid)
	}
	unpin = func() {
		for _, pid := range pids {
			// Best effort: a daemon may already be gone.
			_ = setProcessAffinity(pid, all)
		}
	}
	for _, pid := range pids {
		if err := setProcessAffinity(pid, one); err != nil {
			unpin()
			return nil, err
		}
	}
	return unpin, nil
}
