package main

import (
	"fmt"
	"math"
	"reflect"

	"sring/internal/design"
)

// goldenRow is one Table I cell: L [mm], il_w [dB], #sp_w, il_all [dB]
// (EXPERIMENTS.md, Table I) and #wl (EXPERIMENTS.md, Fig. 7), all under the
// default technology and heuristic assignment.
type goldenRow struct {
	l, ilw float64
	spw    int
	ilAll  float64
	wl     int
}

// goldenTable1 holds the values EXPERIMENTS.md publishes for the paper's
// seven benchmarks × four methods; golden_test.go asserts a subset of the
// same numbers.
var goldenTable1 = map[string]map[string]goldenRow{
	"MWD": {
		"ORNoC": {3.15, 4.11, 5, 20.73, 5}, "CTORing": {1.35, 3.45, 5, 20.13, 3},
		"XRing": {1.20, 3.37, 6, 23.21, 2}, "SRing": {0.45, 3.14, 4, 16.50, 2},
	},
	"VOPD": {
		"ORNoC": {4.35, 4.61, 5, 21.21, 8}, "CTORing": {2.10, 3.81, 5, 20.47, 3},
		"XRing": {0.60, 3.25, 6, 23.25, 1}, "SRing": {1.05, 3.33, 4, 16.74, 3},
	},
	"MPEG": {
		"ORNoC": {3.15, 4.17, 5, 20.86, 13}, "CTORing": {1.35, 3.50, 5, 20.21, 6},
		"XRing": {1.35, 3.50, 6, 23.43, 5}, "SRing": {1.35, 3.51, 4, 16.84, 11},
	},
	"D26": {
		"ORNoC": {9.80, 7.03, 6, 27.08, 28}, "CTORing": {4.60, 4.88, 6, 24.86, 10},
		"XRing": {2.20, 3.84, 7, 27.31, 6}, "SRing": {4.20, 4.63, 5, 21.46, 16},
	},
	"8PM-24": {
		"ORNoC": {0.90, 3.56, 4, 16.87, 12}, "CTORing": {0.70, 3.38, 4, 16.69, 8},
		"XRing": {0.70, 3.28, 5, 19.84, 7}, "SRing": {0.70, 3.56, 3, 13.54, 12},
	},
	"8PM-32": {
		"ORNoC": {1.00, 3.76, 4, 17.07, 16}, "CTORing": {0.70, 3.44, 4, 16.75, 9},
		"XRing": {0.70, 3.31, 5, 19.89, 8}, "SRing": {0.70, 3.68, 3, 13.66, 16},
	},
	"8PM-44": {
		"ORNoC": {1.00, 3.94, 4, 17.25, 16}, "CTORing": {0.70, 3.62, 4, 16.93, 9},
		"XRing": {0.70, 3.40, 5, 19.95, 8}, "SRing": {0.70, 3.86, 3, 13.87, 22},
	},
}

// goldenTol matches the two-decimal rounding of the published values.
const goldenTol = 0.005

// checkGolden compares one heuristic Table I design against its published
// row.
func checkGolden(app, method string, m *design.Metrics) error {
	want, ok := goldenTable1[app][method]
	if !ok {
		return fmt.Errorf("%s/%s: no golden Table I row", app, method)
	}
	switch {
	case math.Abs(m.LongestPathMM-want.l) > goldenTol:
		return fmt.Errorf("%s/%s: L = %.3f, golden %.2f", app, method, m.LongestPathMM, want.l)
	case math.Abs(m.WorstILdB-want.ilw) > goldenTol:
		return fmt.Errorf("%s/%s: il_w = %.3f, golden %.2f", app, method, m.WorstILdB, want.ilw)
	case m.MaxSplitters != want.spw:
		return fmt.Errorf("%s/%s: #sp_w = %d, golden %d", app, method, m.MaxSplitters, want.spw)
	case math.Abs(m.WorstILAlldB-want.ilAll) > goldenTol:
		return fmt.Errorf("%s/%s: il_all = %.3f, golden %.2f", app, method, m.WorstILAlldB, want.ilAll)
	case m.NumWavelengths != want.wl:
		return fmt.Errorf("%s/%s: #wl = %d, golden %d", app, method, m.NumWavelengths, want.wl)
	}
	return nil
}

// exactOptima are the proven optimal Eq. 8 objectives of the SRing
// wavelength assignment (EXPERIMENTS.md, README.md).
var exactOptima = map[string]float64{"MWD": 11.32, "VOPD": 16.21, "8PM-24": 56.55}

// checkExact requires a proven optimum with zero gap at the known value.
func checkExact(app string, d *design.Design) error {
	st := d.AssignStats
	if st == nil || !st.MILPRan {
		return fmt.Errorf("%s: exact assignment did not run", app)
	}
	if !st.MILPExact || st.MILPGap != 0 {
		return fmt.Errorf("%s: not proven optimal (gap %g)", app, st.MILPGap)
	}
	if want := exactOptima[app]; math.Abs(st.Final.Value-want) > goldenTol {
		return fmt.Errorf("%s: objective %.4f, known optimum %.2f", app, st.Final.Value, want)
	}
	return nil
}

// sameMetrics reports whether two evaluations of what must be the same
// design agree exactly.
func sameMetrics(what string, got, want *design.Metrics) error {
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("%s: metrics differ: got %+v, want %+v", what, *got, *want)
	}
	return nil
}
