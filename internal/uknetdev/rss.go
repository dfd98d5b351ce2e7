package uknetdev

import "unikraft/internal/sim"

// Receive-side scaling: multi-queue devices steer incoming flows to RX
// queues by hashing the connection 4-tuple, so every packet of a flow
// lands on the same queue (and therefore the same vCPU) while distinct
// flows spread across queues. The hash is sim.Mix64, the same
// splitmix64 step the cluster router uses for its consistent-hash ring,
// seeded with an RSS-specific salt so queue placement and host
// placement never correlate.
//
// Steering happens "in hardware": the host side of the device picks the
// ring while depositing the frame, exactly like a multi-queue virtio
// device with VIRTIO_NET_F_MQ + an RSS indirection table, so no guest
// cycles are charged for the hash.

// rssSalt domain-separates the RSS hash from every other splitmix64
// user in the tree (the cluster ring salts with host ids instead).
const rssSalt uint64 = 0x52535320756B6E64 // "RSS uknd"

// RSSQueue maps a flow 4-tuple onto one of `queues` RX queues. It is
// the exact function multi-queue devices apply on delivery, exported so
// load generators and tests can predict (or deliberately shape) the
// flow→queue placement — the simulated analogue of pktgen picking
// source ports to hit every hardware queue evenly. queues <= 1 always
// returns 0.
func RSSQueue(srcIP, dstIP uint32, srcPort, dstPort uint16, proto byte, queues int) int {
	if queues <= 1 {
		return 0
	}
	k1 := uint64(srcIP)<<32 | uint64(dstIP)
	k2 := uint64(srcPort)<<32 | uint64(dstPort)<<16 | uint64(proto)
	h := sim.Mix64(sim.Mix64(k1^rssSalt) + k2)
	return int(h % uint64(queues))
}

// Ethernet/IPv4 field offsets for the steering parser. The device only
// needs enough of a header walk to extract the 4-tuple; anything it
// cannot parse (ARP, truncated frames, non-initial fragments) falls
// back to queue 0, mirroring real NIC RSS behaviour.
const (
	ethHeaderLen   = 14
	ethTypeOff     = 12
	etherTypeIPv4  = 0x0800
	ipProtoOff     = 9
	ipSrcOff       = 12
	ipDstOff       = 16
	ipFragOff      = 6
	ipProtoTCP     = 6
	ipProtoUDP     = 17
	minIPHeaderLen = 20
)

// rssSteer parses an Ethernet frame and returns its RX queue. Frames
// without a hashable tuple go to queue 0 (the "default queue" of real
// RSS indirection tables), which keeps broadcast/ARP handling on the
// primary core.
func rssSteer(frame []byte, queues int) int {
	if queues <= 1 || len(frame) < ethHeaderLen+minIPHeaderLen {
		return 0
	}
	if int(frame[ethTypeOff])<<8|int(frame[ethTypeOff+1]) != etherTypeIPv4 {
		return 0
	}
	ip := frame[ethHeaderLen:]
	ihl := int(ip[0]&0x0F) * 4
	if ihl < minIPHeaderLen || len(ip) < ihl {
		return 0
	}
	proto := ip[ipProtoOff]
	src := uint32(ip[ipSrcOff])<<24 | uint32(ip[ipSrcOff+1])<<16 |
		uint32(ip[ipSrcOff+2])<<8 | uint32(ip[ipSrcOff+3])
	dst := uint32(ip[ipDstOff])<<24 | uint32(ip[ipDstOff+1])<<16 |
		uint32(ip[ipDstOff+2])<<8 | uint32(ip[ipDstOff+3])
	var sport, dport uint16
	if proto == ipProtoTCP || proto == ipProtoUDP {
		// Hash ports only for the first fragment (offset 0); later
		// fragments carry no L4 header, and hashing IPs alone keeps all
		// fragments of a datagram on one queue.
		frag := int(ip[ipFragOff]&0x1F)<<8 | int(ip[ipFragOff+1])
		if frag == 0 && len(ip) >= ihl+4 {
			sport = uint16(ip[ihl])<<8 | uint16(ip[ihl+1])
			dport = uint16(ip[ihl+2])<<8 | uint16(ip[ihl+3])
		}
	}
	return RSSQueue(src, dst, sport, dport, proto, queues)
}
