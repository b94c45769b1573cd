package main

import (
	"math"
	"testing"
	"time"
)

// A unit's ref time divides out the mean of the calibration runs on either
// side of it, or the one before it while no later run exists.
func TestRefMSUsesNeighbouringCalibrations(t *testing.T) {
	cal := &calibrator{times: []float64{40}}
	s := cal.sample(200 * time.Millisecond)
	if got := cal.refMS(s); math.Abs(got-250) > 1e-9 { // 200 × 50/40
		t.Errorf("before the next calibration: %v ref ms, want 250", got)
	}
	cal.times = append(cal.times, 60)
	if got := cal.refMS(s); math.Abs(got-200) > 1e-9 { // 200 × 50/((40+60)/2)
		t.Errorf("between two calibrations: %v ref ms, want 200", got)
	}
}

// The kernel runs, takes time and leaves its buffers usable for the next
// run.
func TestCalibratorRuns(t *testing.T) {
	cal, err := newCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	defer cal.close()
	cal.run()
	cal.run()
	if len(cal.times) != 2 || cal.times[0] <= 0 || cal.times[1] <= 0 {
		t.Fatalf("kernel times %v", cal.times)
	}
}
