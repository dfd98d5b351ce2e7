package udpkv

import "testing"

// benchGETs times rounds of rawBurst GETs of one stored key — client
// SendTo, the polls of every party, RecvFrom — and reports the host
// cost per request. TestRawServerSteadyStateAllocs and
// TestSocketServerSteadyStateAllocs gate the allocations at zero;
// ReportAllocs shows them.
func benchGETs(b *testing.B, r *rig) {
	req, want := r.warmGETs(b)
	b.ReportAllocs()
	for b.Loop() {
		r.getRound(b, req, want)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rawBurst), "ns/req")
}

// BenchmarkRawServerGET is Table 4's uknetdev row: the server straight
// on the device.
func BenchmarkRawServerGET(b *testing.B) {
	r, _ := newRawRig(b)
	benchGETs(b, r)
}

// BenchmarkSocketServerGET is the same traffic through the server's
// netstack and a socket, Table 4's lwIP row.
func BenchmarkSocketServerGET(b *testing.B) {
	r, _ := newSocketRig(b)
	benchGETs(b, r)
}
