package netdb

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mlpart/internal/hypergraph"
)

func build3(t *testing.T) (*DB, []CellID, NetID, NetID) {
	t.Helper()
	db := &DB{}
	a := db.AddCell(2)
	b := db.AddCell(3)
	c := db.AddCell(5)
	n1, err := db.AddNet(a, b)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := db.AddNet(b, c)
	if err != nil {
		t.Fatal(err)
	}
	return db, []CellID{a, b, c}, n1, n2
}

func TestAddAndQuery(t *testing.T) {
	db, cells, n1, _ := build3(t)
	if db.NumCells() != 3 || db.NumNets() != 2 || db.NumPins() != 4 {
		t.Fatalf("counts: %d %d %d", db.NumCells(), db.NumNets(), db.NumPins())
	}
	if a, _ := db.Area(cells[1]); a != 3 {
		t.Errorf("area = %d", a)
	}
	if d, _ := db.Degree(cells[1]); d != 2 {
		t.Errorf("degree = %d", d)
	}
	pins, _ := db.Pins(n1)
	if len(pins) != 2 {
		t.Errorf("pins = %v", pins)
	}
	nets, _ := db.Nets(cells[1])
	if len(nets) != 2 {
		t.Errorf("nets = %v", nets)
	}
}

func TestConnectDisconnectIdempotent(t *testing.T) {
	db, cells, n1, _ := build3(t)
	before := db.NumPins()
	if err := db.Connect(n1, cells[0]); err != nil { // already on net
		t.Fatal(err)
	}
	if db.NumPins() != before {
		t.Error("duplicate connect changed pin count")
	}
	if err := db.Disconnect(n1, cells[2]); err != nil { // not on net
		t.Fatal(err)
	}
	if db.NumPins() != before {
		t.Error("spurious disconnect changed pin count")
	}
	if err := db.Disconnect(n1, cells[0]); err != nil {
		t.Fatal(err)
	}
	if db.NumPins() != before-1 {
		t.Error("disconnect did not drop a pin")
	}
}

func TestRemoveNet(t *testing.T) {
	db, cells, n1, _ := build3(t)
	if err := db.RemoveNet(n1); err != nil {
		t.Fatal(err)
	}
	if db.NumNets() != 1 || db.NumPins() != 2 {
		t.Errorf("counts after remove: %d nets %d pins", db.NumNets(), db.NumPins())
	}
	if d, _ := db.Degree(cells[0]); d != 0 {
		t.Errorf("cell 0 degree = %d", d)
	}
	if err := db.RemoveNet(n1); err == nil {
		t.Error("double remove must error")
	}
}

func TestRemoveCell(t *testing.T) {
	db, cells, _, _ := build3(t)
	if err := db.RemoveCell(cells[1]); err != nil {
		t.Fatal(err)
	}
	if db.NumCells() != 2 || db.NumPins() != 2 {
		t.Errorf("counts: %d cells %d pins", db.NumCells(), db.NumPins())
	}
	if db.CellOK(cells[1]) {
		t.Error("cell still alive")
	}
	if _, err := db.Area(cells[1]); err == nil {
		t.Error("query on dead cell must error")
	}
}

func TestIDRecycling(t *testing.T) {
	db, cells, _, _ := build3(t)
	if err := db.RemoveCell(cells[0]); err != nil {
		t.Fatal(err)
	}
	d := db.AddCell(7)
	if d != cells[0] {
		t.Errorf("expected recycled id %d, got %d", cells[0], d)
	}
	if a, _ := db.Area(d); a != 7 {
		t.Errorf("recycled area = %d", a)
	}
	if deg, _ := db.Degree(d); deg != 0 {
		t.Errorf("recycled degree = %d", deg)
	}
}

func TestContract(t *testing.T) {
	db, cells, _, _ := build3(t)
	// Contract {a, b}: net1 {a,b} collapses and vanishes; net2 {b,c}
	// becomes {cluster, c}.
	cl, err := db.Contract(cells[0], cells[1])
	if err != nil {
		t.Fatal(err)
	}
	if a, _ := db.Area(cl); a != 5 {
		t.Errorf("cluster area = %d, want 5", a)
	}
	if db.NumNets() != 1 {
		t.Errorf("nets = %d, want 1 (collapsed net dropped)", db.NumNets())
	}
	if db.NumCells() != 2 {
		t.Errorf("cells = %d, want 2", db.NumCells())
	}
	// Union-find: members map to the cluster.
	for _, c := range cells[:2] {
		got, err := db.Find(c)
		if err != nil || got != cl {
			t.Errorf("Find(%d) = %d, %v; want %d", c, got, err, cl)
		}
	}
	if got, _ := db.Find(cells[2]); got != cells[2] {
		t.Errorf("Find of untouched cell moved: %d", got)
	}
}

func TestContractChainAndFind(t *testing.T) {
	db := &DB{}
	var ids []CellID
	for i := 0; i < 8; i++ {
		ids = append(ids, db.AddCell(1))
	}
	for i := 0; i+1 < 8; i++ {
		if _, err := db.AddNet(ids[i], ids[i+1]); err != nil {
			t.Fatal(err)
		}
	}
	c1, err := db.Contract(ids[0], ids[1])
	if err != nil {
		t.Fatal(err)
	}
	c2, err := db.Contract(c1, ids[2])
	if err != nil {
		t.Fatal(err)
	}
	// Two levels deep: original cells resolve through the chain.
	for _, orig := range ids[:3] {
		got, err := db.Find(orig)
		if err != nil || got != c2 {
			t.Fatalf("Find(%d) = %d, %v; want %d", orig, got, err, c2)
		}
	}
	if a, _ := db.Area(c2); a != 3 {
		t.Errorf("area = %d, want 3", a)
	}
}

func TestContractErrors(t *testing.T) {
	db, cells, _, _ := build3(t)
	if _, err := db.Contract(); err == nil {
		t.Error("empty contraction accepted")
	}
	if _, err := db.Contract(cells[0], cells[0]); err == nil {
		t.Error("duplicate member accepted")
	}
	if _, err := db.Contract(CellID(99)); err == nil {
		t.Error("unknown cell accepted")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := hypergraph.NewBuilder(40)
	for v := 0; v < 40; v++ {
		b.SetArea(v, int64(1+rng.Intn(5)))
	}
	for e := 0; e < 80; e++ {
		b.AddNet(rng.Intn(40), rng.Intn(40), rng.Intn(40))
	}
	h := b.MustBuild()
	db := FromHypergraph(h)
	if db.NumCells() != h.NumCells() || db.NumNets() != h.NumNets() || db.NumPins() != h.NumPins() {
		t.Fatalf("load mismatch: %d/%d/%d", db.NumCells(), db.NumNets(), db.NumPins())
	}
	snap, ids, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.NumCells() != h.NumCells() || snap.NumNets() != h.NumNets() || snap.NumPins() != h.NumPins() {
		t.Fatalf("snapshot mismatch")
	}
	if snap.TotalArea() != h.TotalArea() {
		t.Error("area mismatch")
	}
	if len(ids) != snap.NumCells() {
		t.Error("id map length")
	}
	if err := snap.Validate(); err != nil {
		t.Error(err)
	}
}

func TestSnapshotDropsDegenerateNets(t *testing.T) {
	db := &DB{}
	a := db.AddCell(1)
	b := db.AddCell(1)
	n, err := db.AddNet(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Disconnect(n, b); err != nil {
		t.Fatal(err)
	}
	snap, _, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.NumNets() != 0 {
		t.Errorf("degenerate net survived snapshot: %d nets", snap.NumNets())
	}
}

func TestErrorsOnInvalidIDs(t *testing.T) {
	db := &DB{}
	a := db.AddCell(1)
	if err := db.SetArea(a, -1); err == nil {
		t.Error("negative area accepted")
	}
	if _, err := db.AddNet(CellID(9)); err == nil {
		t.Error("net over unknown cell accepted")
	}
	if err := db.Connect(NetID(0), a); err == nil {
		t.Error("connect to unknown net accepted")
	}
	if err := db.Disconnect(NetID(0), a); err == nil {
		t.Error("disconnect on unknown net accepted")
	}
	if _, err := db.Pins(NetID(5)); err == nil {
		t.Error("pins of unknown net accepted")
	}
	if _, err := db.Nets(CellID(5)); err == nil {
		t.Error("nets of unknown cell accepted")
	}
	if _, err := db.Degree(CellID(5)); err == nil {
		t.Error("degree of unknown cell accepted")
	}
	if err := db.RemoveCell(CellID(5)); err == nil {
		t.Error("remove of unknown cell accepted")
	}
	if _, err := db.Find(CellID(5)); err == nil {
		t.Error("find of unknown cell accepted")
	}
}

// TestPropertyEditSequencesStayConsistent drives random edit
// sequences and checks pin-count bookkeeping plus snapshot validity
// after every burst.
func TestPropertyEditSequencesStayConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := &DB{}
		var cells []CellID
		var nets []NetID
		for step := 0; step < 250; step++ {
			switch rng.Intn(6) {
			case 0:
				cells = append(cells, db.AddCell(int64(1+rng.Intn(5))))
			case 1:
				if len(cells) >= 2 {
					a := cells[rng.Intn(len(cells))]
					b := cells[rng.Intn(len(cells))]
					if db.CellOK(a) && db.CellOK(b) {
						n, err := db.AddNet(a, b)
						if err != nil {
							return false
						}
						nets = append(nets, n)
					}
				}
			case 2:
				if len(nets) > 0 && len(cells) > 0 {
					n := nets[rng.Intn(len(nets))]
					c := cells[rng.Intn(len(cells))]
					if db.NetOK(n) && db.CellOK(c) {
						if err := db.Connect(n, c); err != nil {
							return false
						}
					}
				}
			case 3:
				if len(nets) > 0 {
					n := nets[rng.Intn(len(nets))]
					if db.NetOK(n) {
						if err := db.RemoveNet(n); err != nil {
							return false
						}
					}
				}
			case 4:
				if len(cells) > 0 {
					c := cells[rng.Intn(len(cells))]
					if db.CellOK(c) {
						if err := db.RemoveCell(c); err != nil {
							return false
						}
					}
				}
			case 5:
				// Contract two random live cells (dedupe: recycled
				// ids can appear twice in the tracking slice).
				var live []CellID
				seen := map[CellID]bool{}
				for _, c := range cells {
					if db.CellOK(c) && !seen[c] {
						seen[c] = true
						live = append(live, c)
					}
				}
				if len(live) >= 2 {
					i, j := rng.Intn(len(live)), rng.Intn(len(live))
					if i != j {
						cl, err := db.Contract(live[i], live[j])
						if err != nil {
							return false
						}
						cells = append(cells, cl)
					}
				}
			}
		}
		// Pin count must equal the sum over live nets of their sizes.
		want := 0
		for e := range db.netAlive {
			if db.netAlive[e] {
				want += len(db.netPins[e])
			}
		}
		if db.NumPins() != want {
			return false
		}
		snap, _, err := db.Snapshot()
		if err != nil {
			return false
		}
		return snap.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestContractMatchesInduce: contracting the pairs of a matching in
// the database must yield the same hypergraph (up to ordering) as
// hypergraph.InduceWSPar with the equivalent clustering.
func TestContractMatchesInduce(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	b := hypergraph.NewBuilder(30)
	for e := 0; e < 60; e++ {
		b.AddNet(rng.Intn(30), rng.Intn(30))
	}
	h := b.MustBuild()

	// A fixed matching: (0,1), (2,3), ..., (9,10 excluded) — pair the
	// first 10 cells, leave the rest singleton.
	db := FromHypergraph(h)
	for i := 0; i < 10; i += 2 {
		if _, err := db.Contract(CellID(i), CellID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	snap, _, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	c := &hypergraph.Clustering{CellToCluster: make([]int32, 30)}
	k := int32(0)
	for i := 0; i < 10; i += 2 {
		c.CellToCluster[i] = k
		c.CellToCluster[i+1] = k
		k++
	}
	for i := 10; i < 30; i++ {
		c.CellToCluster[i] = k
		k++
	}
	c.NumClusters = int(k)
	induced, err := hypergraph.InduceWSPar(h, c, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if snap.NumCells() != induced.NumCells() ||
		snap.NumNets() != induced.NumNets() ||
		snap.NumPins() != induced.NumPins() ||
		snap.TotalArea() != induced.TotalArea() {
		t.Errorf("contract/induce disagree: %v vs %v", snap, induced)
	}
}
