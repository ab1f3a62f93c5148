package main

import (
	"math"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Host-speed calibration. The benchmark runs on shared hosts whose speed
// changes under it: on the 2-vCPU reference host a fixed CPU loop took
// 28 ms or 45-55 ms depending on the moment, flipping within and between
// runs, which moved every timing by more than any regression bound.
// Before and after every set-up and every timed pass the harness
// therefore times a fixed kernel — a CPU loop plus random reads over a
// 64 MB table, both in this file and independent of the code under test —
// and scales that set-up's or pass's times by the kernel's reference time
// over the mean of the two measured times, expressing them at the
// reference host's undisturbed speed. The workloads keep two threads busy
// and a slowdown often hit one vCPU only, so the kernel runs on two
// threads at once and counts their mean time; a single-threaded kernel
// over-corrected. A workload that waits on the disk adds appends with an
// fsync each to its kernel: about a third of daemon-submit's time is fsync
// (moving its journal to tmpfs cut its pass time by that much), and its
// disk and syscall latency drifted with the host while the CPU loop did
// not. The scaled times and the factors go to standard error.

const (
	calTableBytes = 64 << 20
	// calThreads is how many copies of the CPU and memory part run at
	// once: the workloads' thread cap.
	calThreads = 2
	// calRefSeconds and calRefFsyncSeconds are the kernel's CPU and
	// memory part and one append+fsync on the undisturbed reference host
	// (2 vCPUs of an Intel Xeon, KVM, ext4 on a virtio disk).
	calRefSeconds      = 0.055
	calRefFsyncSeconds = 80e-6
)

type calibrator struct {
	mem   []byte
	table []int64
	// syncs appends+fsyncs to file go into every kernel run.
	syncs int
	file  *os.File
}

// newCalibrator maps and touches the table outside the Go heap, so it
// changes neither GC pacing nor, after peakRSSMB subtracts it, the
// reported memory. With syncs > 0 the kernel also appends to a file in
// dir.
func newCalibrator(dir string, syncs int) (*calibrator, error) {
	mem, err := syscall.Mmap(-1, 0, calTableBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, err
	}
	c := &calibrator{mem: mem, table: unsafe.Slice((*int64)(unsafe.Pointer(&mem[0])), calTableBytes/8), syncs: syncs}
	for i := range c.table {
		c.table[i] = int64(i)
	}
	if syncs > 0 {
		if c.file, err = os.Create(filepath.Join(dir, "calibrate")); err != nil {
			c.close()
			return nil, err
		}
	}
	return c, nil
}

func (c *calibrator) close() {
	syscall.Munmap(c.mem)
	if c.file != nil {
		c.file.Close()
	}
}

var calSink float64

// kernelTime is one run of the kernel: the mean time of calThreads
// concurrent copies of the CPU and memory part, and the time of the
// appends, in seconds.
type kernelTime struct{ cpuMem, syncs float64 }

// factor returns the scale from measured to reference time for work that
// ran between two kernel runs: the host may change speed during the work,
// so both ends count. Without withSyncs only the CPU and memory part
// counts, for work that does not wait on the disk.
func (c *calibrator) factor(before, after kernelTime, withSyncs bool) float64 {
	ref, got := calRefSeconds, (before.cpuMem+after.cpuMem)/2
	if withSyncs {
		ref += float64(c.syncs) * calRefFsyncSeconds
		got += (before.syncs + after.syncs) / 2
	}
	return ref / got
}

// kernel runs the calibration kernel.
func (c *calibrator) kernel() (kernelTime, error) {
	var k kernelTime
	secs := make([]float64, calThreads)
	sinks := make([]float64, calThreads)
	var wg sync.WaitGroup
	for i := range secs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.Now()
			sinks[i] = c.cpuMem(uint64(88172645463325252 + i))
			secs[i] = time.Since(t).Seconds()
		}()
	}
	wg.Wait()
	for i := range secs {
		k.cpuMem += secs[i] / calThreads
		calSink += sinks[i]
	}
	t := time.Now()
	line := make([]byte, 128)
	for i := 0; i < c.syncs; i++ {
		if _, err := c.file.Write(line); err != nil {
			return k, err
		}
		if err := c.file.Sync(); err != nil {
			return k, err
		}
	}
	k.syncs = time.Since(t).Seconds()
	return k, nil
}

// cpuMem is the CPU loop and the random reads over the table.
func (c *calibrator) cpuMem(x uint64) float64 {
	s := 0.0
	for i := 0; i < 3_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		s += math.Log(float64(x>>11) + 1)
	}
	mask := uint64(len(c.table) - 1)
	var sum int64
	for i := 0; i < 2_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		sum += c.table[x&mask]
	}
	return s + float64(sum)
}
