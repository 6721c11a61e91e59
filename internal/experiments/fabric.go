package experiments

import (
	"fmt"

	"spinngo/internal/mapping"
	"spinngo/internal/packet"
	"spinngo/internal/router"
	"spinngo/internal/sim"
	"spinngo/internal/topo"
)

// installTree installs multicast table entries realising the tree of one
// key from src to the destination cores.
func installTree(fab *router.Fabric, key uint32, src topo.Coord, dests map[topo.Coord][]int) error {
	tree := mapping.BuildTree(fab.Params().Torus, src, dests)
	visited := map[topo.Coord]bool{}
	for c := range tree.Out {
		visited[c] = true
	}
	for c := range tree.Sinks {
		visited[c] = true
	}
	for chip := range visited {
		var rm router.RouteMask
		for _, d := range tree.Out[chip] {
			rm = rm.WithLink(d)
		}
		for _, core := range tree.Sinks[chip] {
			rm = rm.WithCore(core)
		}
		if rm.IsEmpty() {
			continue
		}
		err := fab.Node(chip).Table.Add(router.Entry{
			Match: packet.KeyMask{Key: key, Mask: 0xffffffff},
			Route: rm,
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// E5DeliveryLatency reproduces the section-5.3 claim that multicast
// packets are delivered "well within 1ms ... whatever the distance from
// source to destination": random source/destination pairs on meshes of
// increasing size, lightly loaded.
func E5DeliveryLatency(sizes []int, pairsPerSize int, seed uint64) (*Table, error) {
	t := &Table{
		ID:    "E5",
		Title: "multicast delivery latency vs machine size (lightly loaded)",
		Claim: "packets delivered well within 1 ms at any source-target distance",
		Columns: []string{"mesh", "chips", "diameter", "pairs", "mean hops",
			"mean latency us", "max latency us", "<1ms"},
	}
	allUnderMs := true
	for _, n := range sizes {
		eng := sim.New(seed)
		fab, err := router.NewFabric(eng, router.DefaultParams(n, n))
		if err != nil {
			return nil, err
		}
		torus := fab.Params().Torus
		var lat, hops sim.Stats
		fab.OnDeliverMC = func(_ *router.Node, _ int, pkt packet.Packet, l sim.Time) {
			lat.Add(l.Micros())
			hops.Add(float64(pkt.Hops))
		}
		rng := eng.RNG()
		for i := 0; i < pairsPerSize; i++ {
			src := topo.Coord{X: rng.Intn(n), Y: rng.Intn(n)}
			dst := topo.Coord{X: rng.Intn(n), Y: rng.Intn(n)}
			key := uint32(i + 1)
			if err := installTree(fab, key, src, map[topo.Coord][]int{dst: {0}}); err != nil {
				return nil, err
			}
			// Light load: spread injections out in time.
			eng.AtP(sim.Time(i)*sim.Microsecond, sim.Func(func() {
				fab.InjectMC(src, packet.NewMC(key))
			}))
		}
		eng.Run()
		under := lat.Max() < 1000
		allUnderMs = allUnderMs && under && lat.N() == pairsPerSize
		t.AddRow(fmt.Sprintf("%dx%d", n, n), d(n*n), d(torus.MaxDistance()), d(lat.N()),
			f1(hops.Mean()), f2(lat.Mean()), f2(lat.Max()), fmt.Sprintf("%v", under))
	}
	t.Verdict = verdict(allUnderMs,
		"all deliveries complete well under 1 ms at every size",
		"some deliveries exceeded 1 ms")
	return t, nil
}

// E6EmergencyRouting reproduces Fig 8: traffic crossing a failed link is
// diverted around the two other sides of a mesh triangle, and delivery
// continues; with the mechanism disabled the packets die.
func E6EmergencyRouting(seed uint64) (*Table, error) {
	t := &Table{
		ID:    "E6",
		Title: "emergency routing around a failed link (Fig 8)",
		Claim: "traffic is redirected around the two other sides of the mesh triangle; the monitor is informed",
		Columns: []string{"emergency routing", "failed links", "injected", "delivered",
			"dropped", "detours", "mean extra hops", "monitor notices"},
	}
	run := func(enabled bool, failures int) (delivered, dropped, detours uint64, extraHops float64, notices uint64, injected int, err error) {
		eng := sim.New(seed)
		p := router.DefaultParams(8, 8)
		p.EmergencyEnabled = enabled
		fab, e := router.NewFabric(eng, p)
		if e != nil {
			return 0, 0, 0, 0, 0, 0, e
		}
		src := topo.Coord{X: 0, Y: 0}
		dst := topo.Coord{X: 4, Y: 0} // eastward line (shorter than the wrap)
		if err := installTree(fab, 1, src, map[topo.Coord][]int{dst: {0}}); err != nil {
			return 0, 0, 0, 0, 0, 0, err
		}
		// Fail the first `failures` eastward links on the path.
		for i := 0; i < failures; i++ {
			fab.FailLink(topo.Coord{X: 1 + 2*i, Y: 0}, topo.East)
		}
		baseHops := fab.Params().Torus.Distance(src, dst)
		var extra sim.Stats
		fab.OnDeliverMC = func(_ *router.Node, _ int, pkt packet.Packet, _ sim.Time) {
			extra.Add(float64(pkt.Hops - baseHops))
		}
		const n = 50
		for i := 0; i < n; i++ {
			eng.AtP(sim.Time(i)*10*sim.Microsecond, sim.Func(func() { fab.InjectMC(src, packet.NewMC(1)) }))
		}
		eng.Run()
		var allNotices uint64
		for _, node := range fab.Nodes() {
			allNotices += node.EmergencyNotices
		}
		return fab.DeliveredMC(), fab.DroppedPackets(), fab.EmergencyInvocations(),
			extra.Mean(), allNotices, n, nil
	}
	ok := true
	for _, cfg := range []struct {
		enabled  bool
		failures int
	}{{true, 0}, {true, 1}, {true, 2}, {false, 1}} {
		del, drop, det, extra, notices, injected, err := run(cfg.enabled, cfg.failures)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%v", cfg.enabled), d(cfg.failures), d(injected),
			u(del), u(drop), u(det), f2(extra), u(notices))
		if cfg.enabled && del != uint64(injected) {
			ok = false
		}
		if !cfg.enabled && cfg.failures > 0 && del != 0 {
			ok = false
		}
	}
	t.Verdict = verdict(ok,
		"with emergency routing every packet survives link failures (2 extra hops per detour); without it they are dropped",
		"delivery pattern unexpected")
	return t, nil
}

// E7DropPolicy reproduces the section-5.3 liveness argument: "no Router
// will get into a state where it persistently refuses to accept incoming
// packets" — under adversarial hotspot load with tiny queues, every
// packet is either delivered or dropped (and recoverable), never stuck.
// Congestion alone drops nothing at these depths, so a last row cuts the
// hotspot's last link from the west and its emergency detour for the
// burst: those packets wait, fail the detour and are dropped. Each
// chip's monitor serves the drop interrupt by moving the router's one
// dropped-packet register into a software queue, and once the links are
// repaired re-issues the queue until nothing more drops.
func E7DropPolicy(seed uint64) (*Table, error) {
	t := &Table{
		ID:    "E7",
		Title: "router liveness under hotspot congestion (wait -> emergency -> drop)",
		Claim: "routers never block; blocked packets are eventually dropped and the monitor can recover them",
		Columns: []string{"queue depth", "injected", "delivered", "dropped", "stuck",
			"recovered+redelivered"},
	}
	ok := true
	for _, c := range []struct {
		label string
		depth int
		cut   bool
	}{{"1", 1, false}, {"2", 2, false}, {"8", 8, false}, {"8, cut link", 8, true}} {
		eng := sim.New(seed)
		p := router.DefaultParams(6, 6)
		p.LinkQueueDepth = c.depth
		fab, err := router.NewFabric(eng, p)
		if err != nil {
			return nil, err
		}
		queued := map[*router.Node][]router.DroppedPacket{}
		fab.OnDrop = func(n *router.Node) {
			if dp, full := n.ReadDropped(); full {
				queued[n] = append(queued[n], dp)
			}
		}
		dst := topo.Coord{X: 3, Y: 3}
		srcs := []topo.Coord{{X: 0, Y: 3}, {X: 3, Y: 0}, {X: 0, Y: 0}}
		for i, src := range srcs {
			if err := installTree(fab, uint32(i+1), src, map[topo.Coord][]int{dst: {0}}); err != nil {
				return nil, err
			}
		}
		last := topo.Coord{X: 2, Y: 3}
		detour, _ := topo.East.Emergency()
		if c.cut {
			fab.FailLink(last, topo.East)
			fab.FailLink(last, detour)
		}
		const perSrc = 120
		for i, src := range srcs {
			key := uint32(i + 1)
			src := src
			for k := 0; k < perSrc; k++ {
				eng.AtP(sim.Time(k)*100*sim.Nanosecond, sim.Func(func() { fab.InjectMC(src, packet.NewMC(key)) }))
			}
		}
		eng.RunUntil(sim.Second)
		injected := uint64(len(srcs) * perSrc)
		firstDelivered := fab.DeliveredMC()
		firstDropped := fab.DroppedPackets()
		stuck := injected - firstDelivered - firstDropped
		if c.cut {
			fab.RepairLink(last, topo.East)
			fab.RepairLink(last, detour)
		}
		// Monitor recovery: re-issue everything queued, repeatedly,
		// until the hotspot drains.
		for round := 0; round < 64; round++ {
			re := 0
			for _, node := range fab.Nodes() {
				drops := queued[node]
				delete(queued, node)
				for _, dp := range drops {
					if node.Reinject(dp) {
						re++
					}
				}
			}
			if re == 0 {
				break
			}
			eng.RunUntil(eng.Now() + 100*sim.Millisecond)
		}
		recovered := fab.DeliveredMC()
		if stuck != 0 {
			ok = false
		}
		if recovered != injected {
			ok = false
		}
		if c.cut && firstDropped == 0 {
			ok = false
		}
		t.AddRow(c.label, u(injected), u(firstDelivered), u(firstDropped),
			u(stuck), u(recovered))
	}
	t.Verdict = verdict(ok,
		"no packet ever wedges a router; monitors recover all drops",
		"liveness violated")
	return t, nil
}
