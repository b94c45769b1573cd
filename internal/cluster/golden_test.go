package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"sring/internal/netlist"
	"sring/internal/obs"
)

// fingerprint hashes every bit of a construction that downstream stages
// consume — clusters, each ring's order, kind and level, the message-to-ring
// map, the exact L_max bits and the evaluated count — plus the absorption
// count, so a drift in ring order or in the search's work cannot hide
// behind Table I's two-decimal metrics.
func fingerprint(res *Result, absorptions int64) string {
	h := sha256.New()
	put := func(v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	put(int64(len(res.Clusters)))
	for _, c := range res.Clusters {
		put(int64(len(c)))
		for _, id := range c {
			put(int64(id))
		}
	}
	put(int64(len(res.Rings)))
	for _, r := range res.Rings {
		put(int64(r.ID))
		put(int64(r.Kind))
		put(int64(r.Level))
		put(int64(len(r.Order)))
		for _, id := range r.Order {
			put(int64(id))
		}
	}
	put(int64(len(res.RingForMessage)))
	for _, rid := range res.RingForMessage {
		put(int64(rid))
	}
	put(int64(math.Float64bits(res.Lmax)))
	put(int64(res.Evaluated))
	put(absorptions)
	return hex.EncodeToString(h.Sum(nil))
}

// TestConstructionGolden pins every construction bit for bit against hashes
// captured before the clustering moved onto dense NodeID-indexed data. Any
// change to the selected absorptions, their order or the L_max search shows
// up here.
func TestConstructionGolden(t *testing.T) {
	must := func(app *netlist.Application, err error) *netlist.Application {
		if err != nil {
			t.Fatal(err)
		}
		return app
	}
	type tc struct {
		app    *netlist.Application
		trials int
		want   string
	}
	cases := []tc{
		{netlist.MWD(), 0, "7c228d648346d2d11793df6041b1331ec9818f7e1dfe682c26861a1c608393eb"},
		{netlist.VOPD(), 0, "2698c1165e8de73df2dd8000625439ef75923b72ccd96b5820d6103f85af2bcd"},
		{netlist.MPEG(), 0, "b4886d4d4909f8ababcde7741200a82beb4c5c7167a6bab0af45ae0f984bc918"},
		{netlist.D26(), 0, "8c351c62932f5edf87b88a892ed298ef8e10ef0ce04e127abbd781c629f3cedb"},
		{netlist.PM24(), 0, "4c866fc9fcfcea53bae3cbe60c5886b38aaa1b1eedb114458d98b39346a82dc1"},
		{netlist.PM32(), 0, "6f38248b138e172fcf78baa81ae63b9c3f436a2d955f0a0ec11766375fbdcdac"},
		{netlist.PM44(), 0, "a77ed02fdf028463c3d9f9b9cd84803cc917106d5ffaa494192bf75d7b9ee551"},
		{must(netlist.ScaledSoC(64)), 8, "2ab4f0f0d3c8db9a596acd36ee7232407c65b69393f0a670bd18280845bb4814"},
		{must(netlist.Circulant(64, 1, 9)), 8, "0ce313b363a1f9dda534396f70a1276caeaac0ce0bc324eca4932aaa9dded7e5"},
		{must(netlist.ScaledSoC(128)), 8, "6eef0da6c61d0fae9ec5cf4ff7700d5d7a01a8ba34622d85452b50c65dbd68df"},
		{must(netlist.Random(12, 30, 1)), 0, "42aab713d98fa88fd2e45f1d330f3e44698e4ed0ae2cb55edad0feab50268cb1"},
		{must(netlist.Random(20, 70, 2)), 0, "ea1ca029b7cbdd4586717d376b8686163fa151b82a66ca387af603d0a61b1dcf"},
		{must(netlist.Random(40, 160, 3)), 8, "614f79df1775c8226f340707841e4dcf78be68715af8fcd7d5ddd25029cd10e0"},
		{must(netlist.Random(30, 36, 4)), 0, "97b44e43413957063c99181563a7be866d65869f99aef027435680a745221115"},
		{must(netlist.Clustered(3, 4, 3, 5)), 0, "924e915a6dfff6ee81a2dbf0a8356b0fd3dd7c8fcd2a2507d4d0542644991c8e"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.app.Name, func(t *testing.T) {
			rec := obs.New()
			sp := rec.StartSpan("golden")
			res, err := Synthesize(c.app, Options{MaxInitialTrials: c.trials, Obs: sp})
			sp.End()
			if err != nil {
				t.Fatal(err)
			}
			if res.Levels <= 2 {
				checkSolution(t, c.app, res)
			}
			got := fingerprint(res, rec.Counter("cluster.absorptions").Value())
			if got != c.want {
				t.Errorf("construction fingerprint %s, want %s", got, c.want)
			}
		})
	}
}
