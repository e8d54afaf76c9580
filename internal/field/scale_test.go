package field

import (
	"testing"

	"repro/internal/energy"
)

// TestFieldDieOff100k is the large-field death smoke test: a 100k-node
// 4-ary tree on batteries small enough that most nodes die within 30 s.
// Every death reroutes the dead node's children, so a reroute that scans
// the whole field would make this run quadratic; it must complete with a
// chronological death timeline and exact packet accounting.
func TestFieldDieOff100k(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-node field in -short mode")
	}
	if raceEnabled {
		t.Skip("100k-node field under the race detector")
	}
	cfg := DefaultConfig(TreeTopology(100_000, 4, 0.02, 10))
	cfg.Horizon = 30
	cfg.Warmup = 0
	cfg.Battery = energy.Battery{CapacitymAh: 0.05, Volts: 3}
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d deaths, %d delivered, %d dropped in flight, %d dropped for no route",
		len(res.Deaths), res.Delivered, res.DroppedInFlight, res.DroppedNoRoute)
	if len(res.Deaths) <= len(cfg.Nodes)/2 {
		t.Fatalf("%d of %d nodes died, want more than half", len(res.Deaths), len(cfg.Nodes))
	}
	for i := 1; i < len(res.Deaths); i++ {
		if res.Deaths[i].Time < res.Deaths[i-1].Time {
			t.Fatalf("death %d at %v precedes death %d at %v", i, res.Deaths[i].Time, i-1, res.Deaths[i-1].Time)
		}
	}
	// Transmission is atomic and no-route drops never reach the air, so
	// every transmitted packet was received; in-flight drops must match
	// the per-node tallies.
	var tx, rx, dropped uint64
	for _, nr := range res.Nodes {
		tx += nr.TxPackets
		rx += nr.RxPackets
		dropped += nr.DroppedAtDeath
	}
	if tx != rx {
		t.Fatalf("field Tx %d != Rx %d", tx, rx)
	}
	if dropped != res.DroppedInFlight {
		t.Fatalf("DroppedInFlight %d != per-node sum %d", res.DroppedInFlight, dropped)
	}
}
