package netstack

import "unikraft/internal/sim"

// RouterModel prices the front door's per-request work. The cluster
// layer (internal/ukcluster) puts an L4/L7 router in front of the host
// fleet; its work is paid from sim's cost table, next to the per-packet
// rows of the stack it reuses. The fast path is an L4 flow-table hit:
// parse the Ethernet/IPv4/TCP headers (the same rows the guest stack
// pays), look the 5-tuple up in the connection table and forward. The
// first packet of a flow additionally runs the balancing policy (L7
// decision): a round-robin counter bump, a least-loaded scan over
// per-host counters, or a consistent-hash ring lookup.
//
// The zero value is the calibrated default and the only model shipped
// configurations use; only TestServeGolden sets ExtraCycles.
type RouterModel struct {
	// ExtraCycles is added to every routed request (TLS termination,
	// header-rewrite middleware, ...). Zero for the plain L4 router.
	ExtraCycles uint64
}

// payHeaders pays the router's parse of one request's headers and the
// reply it sends back.
func payHeaders(m *sim.Machine) {
	m.Pay(sim.CostEthRx, 1)
	m.Pay(sim.CostIPRx, 1)
	m.Pay(sim.CostTCPRx, 1)
	m.Pay(sim.CostEthTx, 1)
	m.Pay(sim.CostIPTx, 1)
}

// ChargeRoute charges m for routing one request: header parse,
// connection-table work, and the policy decision over activeHosts
// candidates. policyScan selects the least-loaded scan (true) vs a
// constant-cost decision; policyHash the ring lookup. It returns the
// cycles charged so callers converting to latency need not re-derive
// them from the clock.
func (r RouterModel) ChargeRoute(m *sim.Machine, activeHosts int, policyScan, policyHash bool) uint64 {
	w := sim.StartWatch(m.CPU)
	payHeaders(m)
	m.Pay(sim.CostRouteConnTrack, 1)
	m.Spend(sim.LayerRouter, r.ExtraCycles)
	switch {
	case policyHash:
		m.Pay(sim.CostRouteHash, 1)
	case policyScan:
		m.Pay(sim.CostRouteScan, uint64(max(activeHosts, 1)))
	default:
		m.Pay(sim.CostRouteRR, 1)
	}
	return w.Cycles()
}

// ChargeProbe charges m for one health-probe round over hosts targets.
// Probing is real front-door work: while the router pings the fleet it
// is not forwarding requests, so fault detection has a price the
// request pipeline feels.
func (r RouterModel) ChargeProbe(m *sim.Machine, hosts int) uint64 {
	w := sim.StartWatch(m.CPU)
	m.Pay(sim.CostRouteProbe, uint64(max(hosts, 1)))
	return w.Cycles()
}

// ChargeReject charges m for shedding one request at the front door:
// header parse plus the reject reply, cheaper than routing because no
// policy runs and no connection-table entry is made.
func (r RouterModel) ChargeReject(m *sim.Machine) uint64 {
	w := sim.StartWatch(m.CPU)
	payHeaders(m)
	m.Pay(sim.CostRouteReject, 1)
	return w.Cycles()
}

// ChargeExpire charges m for dropping one request whose deadline
// already passed at the front door: header parse, deadline compare,
// timeout reply. Like a reject, no policy runs and no connection-table
// entry is made — an expired request must cost almost nothing, or
// expiry itself would congest the router it is protecting.
func (r RouterModel) ChargeExpire(m *sim.Machine) uint64 {
	w := sim.StartWatch(m.CPU)
	payHeaders(m)
	m.Pay(sim.CostRouteExpire, 1)
	return w.Cycles()
}
