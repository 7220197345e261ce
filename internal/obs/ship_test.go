package obs

import (
	"fmt"
	"testing"
)

func TestShipperFirstShipIsFull(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c").Add(3)
	reg.Gauge("g").Set(1.5)
	reg.Histogram("h", []float64{1, 10}).Observe(5)

	s := NewShipper(reg)
	ship := s.Ship()
	if ship == nil || !ship.Full || ship.Seq != 1 {
		t.Fatalf("first ship = %+v, want Full seq=1", ship)
	}
	if ship.Counters["c"] != 3 || ship.Gauges["g"] != 1.5 {
		t.Errorf("full ship values wrong: %+v", ship)
	}
	h := ship.Hists["h"]
	if len(h.Bounds) != 2 || h.Count != 1 || h.Sum != 5 {
		t.Errorf("full hist delta = %+v", h)
	}
}

func TestShipperDeltasSkipUnchanged(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c")
	idle := reg.Counter("idle")
	g := reg.Gauge("g")
	h := reg.Histogram("h", []float64{1, 10})
	c.Add(2)
	idle.Add(7)
	g.Set(1)
	h.Observe(0.5)

	s := NewShipper(reg)
	s.Ship() // full baseline

	c.Add(5)
	h.Observe(5)
	h.Observe(50)
	ship := s.Ship()
	if ship.Full || ship.Seq != 2 {
		t.Fatalf("second ship = %+v, want delta seq=2", ship)
	}
	if ship.Counters["c"] != 5 {
		t.Errorf("counter delta = %d, want 5", ship.Counters["c"])
	}
	if _, ok := ship.Counters["idle"]; ok {
		t.Errorf("unchanged counter shipped: %+v", ship.Counters)
	}
	if _, ok := ship.Gauges["g"]; ok {
		t.Errorf("unchanged gauge shipped: %+v", ship.Gauges)
	}
	hd, ok := ship.Hists["h"]
	if !ok || hd.Bounds != nil {
		t.Fatalf("hist delta = %+v, want bounds omitted on delta", hd)
	}
	if hd.Count != 2 || hd.Sum != 55 {
		t.Errorf("hist delta count=%d sum=%v, want 2, 55", hd.Count, hd.Sum)
	}
	// Bucket deltas: one in (1,10], one in +Inf.
	if hd.Counts[1] != 1 || hd.Counts[2] != 1 || hd.Counts[0] != 0 {
		t.Errorf("bucket deltas = %v", hd.Counts)
	}

	// Nothing changed: the ship still advances Seq but carries no samples.
	ship = s.Ship()
	if !ship.Empty() || ship.Seq != 3 {
		t.Errorf("idle ship = %+v, want empty seq=3", ship)
	}
}

func TestShipperNewSeriesAfterBaseline(t *testing.T) {
	reg := NewRegistry()
	s := NewShipper(reg)
	s.Ship()
	reg.Counter("late").Add(4)
	reg.Histogram("lateh", []float64{1}).Observe(2)
	ship := s.Ship()
	if ship.Counters["late"] != 4 {
		t.Errorf("late counter delta = %+v", ship.Counters)
	}
	hd := ship.Hists["lateh"]
	if len(hd.Bounds) != 1 || hd.Count != 1 || hd.Sum != 2 {
		t.Errorf("late hist should carry bounds and absolutes: %+v", hd)
	}
}

func TestShipperNil(t *testing.T) {
	var s *Shipper
	if s.Ship() != nil {
		t.Error("nil shipper should ship nil")
	}
	if NewShipper(nil) != nil {
		t.Error("NewShipper(nil) should be nil")
	}
	var ship *TelemetryShip
	if !ship.Empty() {
		t.Error("nil ship should be Empty")
	}
}

// TestShipReceiverAccumulates: the receive half rebuilds the sender's
// cumulative registry from a Full ship plus deltas — quantiles included,
// by the same loop the sender's histogram uses — and a later Full ship
// (the sender reconnected with a fresh Shipper) resets it.
func TestShipReceiverAccumulates(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c")
	g := reg.Gauge("g")
	h := reg.Histogram("h", []float64{1, 10})
	c.Add(3)
	g.Set(2)
	h.Observe(5)
	s := NewShipper(reg)
	var rx ShipReceiver

	first := rx.Receive(s.Ship())
	c.Add(2)
	h.Observe(0.5)
	h.Observe(50)
	got := rx.Receive(s.Ship())
	want := reg.Snapshot()
	if got.Counters["c"] != 5 || got.Gauges["g"] != 2 {
		t.Errorf("cumulative state = %+v, want c=5 g=2 (unchanged gauge kept)", got)
	}
	if gh, wh := got.Histograms["h"], want.Histograms["h"]; gh.Count != 3 || gh.Sum != 55.5 ||
		gh.P50 != wh.P50 || gh.P90 != wh.P90 || gh.P99 != wh.P99 {
		t.Errorf("received hist = %+v, sender's = %+v", gh, wh)
	}
	if first.Counters["c"] != 3 {
		t.Errorf("an earlier snapshot changed under a later ship: %+v", first.Counters)
	}

	reg2 := NewRegistry()
	reg2.Counter("c").Add(1)
	got = rx.Receive(NewShipper(reg2).Ship())
	if got.Counters["c"] != 1 || len(got.Gauges) != 0 || len(got.Histograms) != 0 {
		t.Errorf("state after a second Full ship = %+v, want only c=1", got)
	}
}

func BenchmarkTelemetryShipEncode(b *testing.B) {
	reg := NewRegistry()
	for i := 0; i < 8; i++ {
		reg.Counter(fmt.Sprintf("c%d", i)).Add(int64(i))
		reg.Gauge(fmt.Sprintf("g%d", i)).Set(float64(i))
		reg.Histogram(fmt.Sprintf("h%d", i), nil).Observe(float64(i))
	}
	s := NewShipper(reg)
	s.Ship()
	hot := reg.Counter("c0")
	h := reg.Histogram("h0", nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hot.Inc()
		h.Observe(1)
		if s.Ship() == nil {
			b.Fatal("nil ship")
		}
	}
}
