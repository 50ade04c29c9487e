package main

import (
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// cpuNow returns the process's user+system CPU time: every thread, the
// garbage collector's background workers included. On a shared VM this
// reads the same for the same work whether or not the hypervisor stole
// the core in between, which wall-clock time does not.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error()) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocatedBytes returns the cumulative bytes allocated on the heap.
// ReadMemStats flushes every P's allocation cache, so the difference of
// two readings is exact; it stops the world, so callers read it outside
// any CPU window.
func allocatedBytes() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

var allocSample = []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// allocatedBytesCheap is allocatedBytes without stopping the world. A
// reading misses what the per-P allocation caches have not yet flushed,
// a bounded amount that cancels out of the sum over a run's ops.
func allocatedBytesCheap() uint64 {
	rtmetrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// liveHeap returns the bytes of live heap objects after two forced
// collections (the second also empties sync.Pool victim caches).
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// The host's speed drifts: on the 2-vCPU VM the benchmark was tuned on,
// the same op's CPU time moved by a third within ten minutes, and
// map-update, copy-and-hash and sort loops all moved with it. So the
// timed phase runs a fixed kernel of those three loops between ops, and
// every CPU-time metric is scaled by refKernelMs over the run's median
// kernel time: it reads as CPU time on a host where the kernel takes
// refKernelMs.
const (
	refKernelMs = 12.0
	kernelEvery = 250 * time.Millisecond
)

// The kernel's data, allocated once: the kernel allocates nothing, so it
// neither triggers collections nor pays for marking the workload's heap.
var (
	kernelMap   = make(map[uint64]int32, 1<<17)
	kernelBytes = make([]byte, 4<<20)
	kernelCopy  = make([]byte, 4<<20)
	kernelInts  = make([]int, 100000)
	kernelSort  = make([]int, 100000)
)

func init() {
	x := uint64(3)
	for i := range kernelInts {
		x = x*6364136223846793005 + 1442695040888963407
		kernelInts[i] = int(x >> 20)
	}
	for i := range kernelBytes {
		kernelBytes[i] = byte(i * 7)
	}
}

// kernel runs 100,000 increments of a map at pseudo-random keys, a 4 MB
// copy with an FNV-1a hash of its first megabyte, and a sort of 100,000
// ints, and returns their CPU time in ms. It is the benchmark's own code,
// so no change to the repository can make it faster or slower. It runs
// locked to one thread and reads that thread's CPU time, so collector
// work on other threads is not charged to it.
func kernel() float64 {
	clear(kernelMap)
	copy(kernelSort, kernelInts)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPU()
	x := uint64(7)
	for i := 0; i < 100000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		kernelMap[x>>44]++
	}
	copy(kernelCopy, kernelBytes)
	h := uint64(14695981039346656037)
	for _, b := range kernelCopy[:1<<20] {
		h = (h ^ uint64(b)) * 1099511628211
	}
	sort.Ints(kernelSort)
	d := threadCPU() - c0
	kernelSink += h + uint64(kernelSort[0])
	return float64(d) / 1e6
}

var kernelSink uint64

// threadCPU returns the calling thread's user+system CPU time.
func threadCPU() time.Duration {
	const rusageThread = 1 // RUSAGE_THREAD
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		panic("getrusage: " + err.Error()) // cannot fail on Linux
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// median returns the median of xs (the mean of the middle two for an
// even count). xs must not be empty; it is sorted in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs,
// which must not be empty; it is sorted in place.
func percentile(xs []float64, q float64) float64 {
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(i, 0)]
}

// loopResult is what the timed phase measured.
type loopResult struct {
	opCPU  []float64 // per-op CPU time, ms, unscaled
	instrs int64     // IR instructions submitted across all ops
	allocs uint64    // heap bytes allocated inside ops
	failed int       // ops whose output did not match the reference
	heap   []float64 // live heap bytes, sampled between sessions
	kernel []float64 // kernel CPU times, ms
	cpu    time.Duration
	wall   time.Duration // whole phase, checks and session resets included
}

// heapEvery is the least wall time between two live-heap samples.
const heapEvery = time.Second

// timeOps runs w's ops in a closed loop with one caller until at least
// d has passed and w is between sessions. Only op itself is inside the
// CPU and allocation windows; set-up between sessions, the output check,
// the kernel and the live-heap samples are not. The heap is sampled
// between sessions, when what the workload keeps reachable is the same
// each time, and again at the end.
func timeOps(w workload, d time.Duration) loopResult {
	var r loopResult
	wall0, cpu0 := time.Now(), cpuNow()
	var lastSample, lastKernel time.Time
	for {
		between := len(r.opCPU) > 0 && w.idle()
		done := between && time.Since(wall0) >= d
		if done || (between && time.Since(lastSample) >= heapEvery) {
			r.heap = append(r.heap, float64(liveHeap()))
			lastSample = time.Now()
		}
		if done {
			break
		}
		if time.Since(lastKernel) >= kernelEvery {
			r.kernel = append(r.kernel, kernel())
			lastKernel = time.Now()
		}
		w.prepare()
		a0 := allocatedBytesCheap()
		c0 := cpuNow()
		n := w.op()
		c1 := cpuNow()
		r.allocs += allocatedBytesCheap() - a0
		r.opCPU = append(r.opCPU, float64(c1-c0)/1e6)
		r.instrs += int64(n)
		if !w.check() {
			r.failed++
		}
	}
	r.wall, r.cpu = time.Since(wall0), cpuNow()-cpu0
	return r
}
