package main

import (
	"fmt"
	"runtime"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// Host-speed calibration. The CPU time of the same code swings by a quarter
// and more between runs on a shared host: other guests on the same cores
// and caches slow every instruction, which no choice of clock removes. So
// the benchmark runs a fixed calibration kernel — code of its own, never
// the program's — right before each timed unit (an op, a heavy call, a
// set-up, a one-second serve window) and once after the last, and scales
// each unit's CPU time by calRefMS over the mean kernel CPU time of the
// runs on either side of it. The host's speed drifts within a second, so
// the two neighbours estimate it better than the run's median would. A
// host that runs everything 30% slower runs the kernel 30% slower too, and
// the scaled figure stays put; a change to the program moves it in full,
// since the kernel does not depend on the program.
//
// The scaled unit is the "ref ms": the CPU time the unit would take on a
// host where the calibration kernel takes exactly calRefMS.
const calRefMS = 50.0

// Kernel sizes. The three parts — a sort, a hash table, a dense matrix
// product — stand for the branchy integer code, the scattered memory
// accesses and the floating-point work that synthesis mixes; each takes a
// similar share of the kernel's time.
const (
	calSortLen    = 1 << 17
	calTableLen   = 1 << 20 // slots, a power of two
	calTableKeys  = 400000
	calMatDim     = 128
	calMatRepeats = 5
)

// calibrator owns the kernel's buffers. They live in memory mapped outside
// the Go heap, so the kernel neither allocates nor changes the heap size
// that paces the garbage collector during the program's ops.
type calibrator struct {
	mem     []byte
	ints    []int64
	table   []int64
	a, b, c []float64
	times   []float64 // every kernel time, CPU ms
	sink    int64
}

// calSample is a timed unit's CPU time and the index of the calibration
// run before it.
type calSample struct {
	cpuMS float64
	cal   int
}

func newCalibrator() (*calibrator, error) {
	words := calSortLen + calTableLen + 3*calMatDim*calMatDim
	mem, err := syscall.Mmap(-1, 0, 8*words, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("calibration buffers: %w", err)
	}
	cal := &calibrator{mem: mem}
	ints := unsafe.Slice((*int64)(unsafe.Pointer(&mem[0])), calSortLen+calTableLen)
	floats := unsafe.Slice((*float64)(unsafe.Pointer(&mem[8*len(ints)])), 3*calMatDim*calMatDim)
	cal.ints, cal.table = ints[:calSortLen], ints[calSortLen:]
	n := calMatDim * calMatDim
	cal.a, cal.b, cal.c = floats[:n], floats[n:2*n], floats[2*n:]
	return cal, nil
}

// close releases the buffers.
func (cal *calibrator) close() {
	if err := syscall.Munmap(cal.mem); err != nil {
		panic("perfbench: munmap: " + err.Error())
	}
}

// run times the kernel once on the CPU clock. It first finishes any
// garbage collection the previous unit left running, whose work would
// otherwise land in the kernel's time; the kernel allocates nothing, so no
// collection starts while it runs.
func (cal *calibrator) run() {
	runtime.GC()
	start := cpuTime()
	cal.sortKernel()
	cal.hashKernel()
	cal.matKernel()
	cal.times = append(cal.times, ms(cpuTime()-start))
}

// sample pairs a unit's CPU time with the latest calibration run.
func (cal *calibrator) sample(cpu time.Duration) calSample {
	return calSample{cpuMS: ms(cpu), cal: len(cal.times) - 1}
}

// refMS converts a sample to ref ms. Once a calibration has run after the
// unit, the two runs around it set the scale; before that, the one before.
func (cal *calibrator) refMS(s calSample) float64 {
	k := cal.times[s.cal]
	if s.cal+1 < len(cal.times) {
		k = (k + cal.times[s.cal+1]) / 2
	}
	return s.cpuMS * calRefMS / k
}

// refAll converts samples to ref ms.
func (cal *calibrator) refAll(ss []calSample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = cal.refMS(s)
	}
	return out
}

// lcg is the kernel's input generator; the kernel's work is the same on
// every call.
func lcg(s uint64) uint64 { return s*6364136223846793005 + 1442695040888963407 }

func (cal *calibrator) sortKernel() {
	s := uint64(1)
	for i := range cal.ints {
		s = lcg(s)
		cal.ints[i] = int64(s >> 1)
	}
	slices.Sort(cal.ints)
	cal.sink += cal.ints[len(cal.ints)/2]
}

// hashKernel fills an open-addressing table by linear probing, then looks
// up as many keys again, half of them absent.
func (cal *calibrator) hashKernel() {
	clear(cal.table)
	mask := uint64(len(cal.table) - 1)
	s := uint64(7)
	for i := 0; i < calTableKeys; i++ {
		s = lcg(s)
		k := int64(s>>1) | 1
		for h := uint64(k) * 0x9e3779b97f4a7c15 >> 20 & mask; ; h = (h + 1) & mask {
			if cal.table[h] == 0 || cal.table[h] == k {
				cal.table[h] = k
				break
			}
		}
	}
	s = uint64(7)
	for i := 0; i < calTableKeys; i++ {
		s = lcg(s)
		k := int64(s>>1) | 1
		if i%2 == 1 {
			k ^= 2 // most such keys were never stored
		}
		for h := uint64(k) * 0x9e3779b97f4a7c15 >> 20 & mask; cal.table[h] != 0; h = (h + 1) & mask {
			if cal.table[h] == k {
				cal.sink++
				break
			}
		}
	}
}

func (cal *calibrator) matKernel() {
	n := calMatDim
	for i := range cal.a {
		cal.a[i] = float64(i%17) * 0.5
		cal.b[i] = float64(i%13) * 0.25
	}
	for r := 0; r < calMatRepeats; r++ {
		clear(cal.c)
		for i := 0; i < n; i++ {
			for k := 0; k < n; k++ {
				aik := cal.a[i*n+k]
				row, out := cal.b[k*n:(k+1)*n], cal.c[i*n:(i+1)*n]
				for j := range out {
					out[j] += aik * row[j]
				}
			}
		}
	}
	cal.sink += int64(cal.c[n*n/2])
}
