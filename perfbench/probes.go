package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// triadBytes is the size of each of the three STREAM-triad arrays.
// On a 2-vCPU VM reporting a 300 MiB L3, triad bandwidth falls from
// about 17 GB/s at 25 MB per array to a steady about 10 GB/s once the
// arrays reach about 200 MB in total; 3 × 64 MiB sits at that edge
// while staying small enough for a shared machine.
const triadBytes = 64 << 20

// mapped returns n zeroed Ts in anonymous memory outside the Go heap.
// The harness keeps its large data there (triad arrays, input bytes
// and reference matrices): on the heap it would count in heap_peak_mb
// and, as live data, would stretch the garbage collector's pacing for
// the program under test. T must hold no pointers.
func mapped[T any](n int) ([]T, error) {
	var zero T
	mem, err := syscall.Mmap(-1, 0, max(1, n*int(unsafe.Sizeof(zero))), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[0])), n), nil
}

// unmap releases a slice made by mapped.
func unmap[T any](s []T) {
	var zero T
	mem := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), max(1, len(s)*int(unsafe.Sizeof(zero))))
	_ = syscall.Munmap(mem) // only fails on a bad mapping, which mapped never returns
}

// triad is the STREAM-triad probe a[i] = b[i] + s·c[i]: the measured
// memory bandwidth that bw_frac divides by. Its arrays live for the
// whole run, so repetitions can be interleaved with the kernel calls
// they are compared to.
type triad struct {
	all     []float64
	a, b, c []float64
	workers int
}

func newTriad(bytesPerArray, workers int) (*triad, error) {
	n := bytesPerArray / 8
	all, err := mapped[float64](3 * n)
	if err != nil {
		return nil, fmt.Errorf("triad arrays: %w", err)
	}
	t := &triad{all: all, a: all[:n:n], b: all[n : 2*n : 2*n], c: all[2*n:], workers: workers}
	for i := range t.b {
		t.b[i], t.c[i] = 1, 2
	}
	return t, nil
}

// release unmaps the arrays.
func (t *triad) release() { unmap(t.all) }

// rep runs one repetition on `workers` goroutines over contiguous
// slices and returns GB/s, counting 24 bytes per element as STREAM
// does.
func (t *triad) rep() float64 {
	n := len(t.a)
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < t.workers; w++ {
		lo, hi := n*w/t.workers, n*(w+1)/t.workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			aa, bs, cs := t.a[lo:hi], t.b[lo:hi], t.c[lo:hi]
			for i := range aa {
				aa[i] = bs[i] + 3*cs[i]
			}
		}()
	}
	wg.Wait()
	return 24 * float64(n) / time.Since(t0).Seconds() / 1e9
}

// begin allocates the triad arrays, prints the sizes that decide what
// the triad and the kernels measure (matrix working set, triad arrays,
// last-level cache), and starts the heap sampler from the harness's
// own live heap.
func (b *bench) begin(workingSet int64) error {
	size := triadBytes
	if b.tiny {
		size = 1 << 20
	}
	var err error
	if b.tri, err = newTriad(size, b.workers); err != nil {
		return err
	}
	b.tri.rep() // first touch
	gbs := b.tri.rep()
	fmt.Fprintf(b.out, "triad %.2f GB/s with %d workers; arrays 3 x %d MiB; matrix working set %.1f MiB; LLC %s\n",
		gbs, b.workers, size>>20, float64(workingSet)/(1<<20), llcSize())
	b.triadGBs = nil
	b.heap = startHeapPeak()
	fmt.Fprintf(b.out, "harness live heap %.1f MB\n", float64(b.heap.base)/1e6)
	return nil
}

// end records heap_peak_mb and loadgen.triad_gbps, the median of the
// triad repetitions interleaved with the library phase.
func (b *bench) end() {
	b.m.set("heap_peak_mb", b.heap.finish(), "MB")
	b.m.set("loadgen.triad_gbps", quantile(b.triadGBs, 0.5), "GB/s")
	b.tri.release()
	b.tri = nil
}

// llcSize reports the largest CPU cache Linux lists, for the log only.
func llcSize() string {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	best, label := 0, "unknown"
	for _, d := range dirs {
		raw, err := os.ReadFile(filepath.Join(d, "size"))
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(raw))
		kib, err := strconv.Atoi(strings.TrimSuffix(s, "K"))
		if err == nil && kib > best {
			best, label = kib, fmt.Sprintf("%d KiB", kib)
		}
	}
	return label
}

// heapPeak samples the Go heap (bytes in live and not yet swept
// objects) until finish, keeping the maximum. base is the live heap
// after a collection at the start: what the harness holds before the
// program runs. The peak is reported above it.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	base uint64
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapPeak() *heapPeak {
	sample := []rtmetrics.Sample{{Name: heapMetric}}
	runtime.GC() // collects and sweeps: what remains is live
	rtmetrics.Read(sample)
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{}), base: sample[0].Value.Uint64()}
	go func() {
		defer close(h.done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			rtmetrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops sampling and returns the peak above the base in MB.
func (h *heapPeak) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak-min(h.base, h.peak)) / 1e6
}

// mallocs reads the process-wide count of heap allocations.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
