package main

import (
	"bufio"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (Hyndman–Fan type 7). xs need not be sorted; it is not
// modified. An empty slice yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the CPU time, user plus system, that every thread of the
// process has used so far. The timed metrics are taken on this clock: time
// the CPU spends on other processes, or — under the kernel's steal-time
// accounting — that the hypervisor gives to other guests, is not counted,
// so a busy host lengthens a run's wall time but not its figures.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("perfbench: getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stamp is a point on both clocks.
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

func now() stamp { return stamp{wall: time.Now(), cpu: cpuTime()} }

// since returns the wall and CPU time elapsed since s.
func (s stamp) since() (wall, cpu time.Duration) {
	c := cpuTime()
	return time.Since(s.wall), c - s.cpu
}

// hostClock reads the host-wide CPU counters of /proc/stat, to record how
// much of a run's wall time the hypervisor took away (steal) and how much
// of it the process ran. Where /proc/stat is missing it reads zeros.
type hostClock struct{ steal, total uint64 }

func readHostClock() hostClock {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return hostClock{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return hostClock{}
	}
	fields := strings.Fields(sc.Text()) // cpu user nice system idle iowait irq softirq steal ...
	var h hostClock
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return hostClock{}
		}
		if i < 8 { // guest time is already inside user and nice
			h.total += v
		}
		if i == 7 {
			h.steal = v
		}
	}
	return h
}

// runNotes are the diagnostics of a timed window: the share of all CPUs'
// time the hypervisor stole, the process's CPU time over wall time, and
// the calibration kernel's median and quartile spread, which say how fast
// the host ran.
func runNotes(start stamp, startHost hostClock, cal *calibrator, notes map[string]float64) {
	wall, cpu := start.since()
	end := readHostClock()
	notes["host_steal_share"] = ratioOr(float64(end.steal-startHost.steal), float64(end.total-startHost.total), 0)
	notes["cpu_per_wall"] = ratioOr(float64(cpu), float64(wall), 0)
	notes["cal_ms_p50"] = median(cal.times)
	notes["cal_iqr_share"] = ratioOr(quantile(cal.times, 0.75)-quantile(cal.times, 0.25), median(cal.times), 0)
}

// heapSampler tracks the peak of the Go heap's object bytes (runtime/metrics
// /memory/classes/heap/objects:bytes: live objects plus not yet swept
// garbage), sampled on a fixed period by one goroutine that stop ends and
// waits for. A single peak over a whole run is an extreme value that swings
// with GC timing, so callers read peaks per unit of work — take after each
// op, or per window — and report their median.
type heapSampler struct {
	stopCh  chan struct{}
	wg      sync.WaitGroup
	peak    atomic.Uint64 // bytes, since the last take or window close
	windows []float64     // MB per closed window; read only after stop
}

const heapMetric = "/memory/classes/heap/objects:bytes"

// samplePeriod trades sampling cost against missing a short-lived peak.
const samplePeriod = 5 * time.Millisecond

// startHeapSampler starts sampling. A positive window closes a window —
// recording its peak — every window.
func startHeapSampler(window time.Duration) *heapSampler {
	h := &heapSampler{stopCh: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: heapMetric}}
		read := func() {
			metrics.Read(s)
			v := s[0].Value.Uint64()
			for old := h.peak.Load(); v > old && !h.peak.CompareAndSwap(old, v); old = h.peak.Load() {
			}
		}
		t := time.NewTicker(samplePeriod)
		defer t.Stop()
		var windowEnd <-chan time.Time
		if window > 0 {
			w := time.NewTicker(window)
			defer w.Stop()
			windowEnd = w.C
		}
		read()
		for {
			select {
			case <-h.stopCh:
				return
			case <-t.C:
				read()
			case <-windowEnd:
				read()
				h.windows = append(h.windows, h.take())
			}
		}
	}()
	return h
}

// take returns the peak in MB (2^20 bytes) since the previous take and
// starts a new one.
func (h *heapSampler) take() float64 { return float64(h.peak.Swap(0)) / (1 << 20) }

// stop ends sampling.
func (h *heapSampler) stop() {
	close(h.stopCh)
	h.wg.Wait()
}
