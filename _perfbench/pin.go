package main

import (
	"errors"
	"math"
	"os"
	goruntime "runtime"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// cpuSet is a Linux CPU affinity mask wide enough for 1024 CPUs.
type cpuSet [16]uint64

// pinOneCPU confines the harness, and with it every process it starts,
// to the fastest CPU it may run on. The trainer, the server and the
// closed-loop client then hand work to one another on the same CPU and
// never wake a sleeping one: on a shared virtual machine that cross-CPU
// wake-up costs anything from a few to a few hundred microseconds
// depending on what the host is doing, which swamped a 0.15 ms
// cache-hit ask. The CPUs themselves differ too: one of two measured
// half as fast as the other for minutes at a time, as the host's load
// moved, so the harness times a short fixed loop on each (spin) and
// takes the quickest, returning its time for the loop. The server sizes
// its defaults (workers, queue) from the CPU count it sees, so it runs
// as dbpal-serve does on a one-CPU machine.
func pinOneCPU() (int, time.Duration, error) {
	var all cpuSet
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(all), uintptr(unsafe.Pointer(&all))); e != 0 {
		return -1, 0, e
	}
	cpu, best := -1, time.Duration(math.MaxInt64)
	buf := make([]uint32, 1<<spinBits)
	goruntime.LockOSThread()
	for i := 0; i < len(all)*64; i++ {
		if all[i/64]&(1<<(i%64)) == 0 {
			continue
		}
		var one cpuSet
		one[i/64] = 1 << (i % 64)
		if err := setAffinity(0, &one); err != nil {
			goruntime.UnlockOSThread()
			return -1, 0, err
		}
		if d := min(spin(buf), spin(buf), spin(buf)); d < best {
			cpu, best = i, d
		}
	}
	goruntime.UnlockOSThread()
	if cpu < 0 {
		return -1, 0, errors.New("empty CPU affinity mask")
	}
	goruntime.GOMAXPROCS(1)
	var one cpuSet
	one[cpu/64] = 1 << (cpu % 64)
	// A thread inherits the mask of the thread that starts it, so a
	// pass that finds no thread it has not pinned yet leaves none.
	pinned := map[int]bool{}
	for {
		ents, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return -1, 0, err
		}
		fresh := 0
		for _, ent := range ents {
			tid, err := strconv.Atoi(ent.Name())
			if err != nil || pinned[tid] {
				continue
			}
			if err := setAffinity(tid, &one); err != nil && err != syscall.ESRCH {
				return -1, 0, err
			}
			pinned[tid] = true
			fresh++
		}
		if fresh == 0 {
			return cpu, best, nil
		}
	}
}

// setAffinity sets one thread's CPU mask (tid 0 = the calling thread).
func setAffinity(tid int, set *cpuSet) error {
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*set), uintptr(unsafe.Pointer(set))); e != 0 {
		return e
	}
	return nil
}

// spin times a fixed loop of about 10 ms of random increments over buf.
// Its 16 MiB outgrow a core's private caches, so it times memory as well
// as arithmetic: a neighbour's load showed more in memory-bound work
// (training, the server) than in a loop of arithmetic alone.
func spin(buf []uint32) time.Duration {
	t0 := time.Now()
	x := uint64(1)
	for i := 0; i < 2_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		buf[x>>(64-spinBits)]++
	}
	return time.Since(t0)
}

const spinBits = 22
