package cluster

import (
	"testing"

	"sring/internal/netlist"
)

// BenchmarkSynthesize measures the clustering (the Table II cost centre)
// per paper benchmark, plus two scale netlists at MaxInitialTrials 8: the
// 64-node scaled SoC and the dense-adjacency circulant circ64-1-9.
func BenchmarkSynthesize(b *testing.B) {
	type bc struct {
		app    *netlist.Application
		trials int
	}
	var cases []bc
	for _, app := range netlist.Benchmarks() {
		cases = append(cases, bc{app, 0})
	}
	d64, err := netlist.ScaledSoC(64)
	if err != nil {
		b.Fatal(err)
	}
	circ, err := netlist.Circulant(64, 1, 9)
	if err != nil {
		b.Fatal(err)
	}
	cases = append(cases, bc{d64, 8}, bc{circ, 8})
	for _, c := range cases {
		c := c
		b.Run(c.app.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Synthesize(c.app, Options{MaxInitialTrials: c.trials}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRingOrderLongest measures the absorption inner loop.
func BenchmarkRingOrderLongest(b *testing.B) {
	app := netlist.D26()
	order := app.ActiveNodes()
	pos := make([]int, app.N())
	prefix := make([]float64, app.N()+1)
	arcs := make([]arc, len(app.Messages))
	for i, m := range app.Messages {
		arcs[i] = arc{m.Src, m.Dst}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ringOrderLongest(app, order, pos, prefix, arcs)
	}
}
