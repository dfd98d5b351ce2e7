package netstack

import "testing"

var sink uint16

// BenchmarkChecksum sums one full-MSS segment and one 64-byte header's
// worth, the two sizes the TCP path checksums.
func BenchmarkChecksum(b *testing.B) {
	for _, bc := range []struct {
		name string
		n    int
	}{{"64B", 64}, {"1480B", tcpHeaderLen + defaultMSS}} {
		b.Run(bc.name, func(b *testing.B) {
			data := pattern(bc.n, 1)
			b.SetBytes(int64(bc.n))
			for b.Loop() {
				sink = Checksum(data, 0x1234)
			}
		})
	}
}

// BenchmarkTCPBulk moves 64 KB per iteration between two stacks over a
// uknetdev pair — Write, segmentation, both input state machines, ACKs,
// timers, Read — the counterpart of uknetdev's BenchmarkTxBurst one
// layer up. Warmed up it must not allocate; TestTCPSteadyStateAllocs
// gates that, ReportAllocs shows it.
func BenchmarkTCPBulk(b *testing.B) {
	w := newWorld(b)
	conn, sconn := connect(b, w)
	payload := pattern(64<<10, 11)
	buf := make([]byte, 16<<10)
	bulk(b, w, conn, sconn, payload, buf, false)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for b.Loop() {
		bulk(b, w, conn, sconn, payload, buf, false)
	}
}
