// Package netstack is a from-scratch TCP/IP stack playing the role lwIP
// plays in the paper (Figure 4's "NW STACKS" layer): Ethernet, ARP,
// IPv4, ICMP, UDP and TCP over the uknetdev API, topped by a socket
// layer. It exists both as a real substrate for the application
// experiments (nginx/Redis throughput, the UDP key-value store) and as
// the "standard path" whose per-packet cost the paper's specialized
// uknetdev applications avoid (Table 4).
package netstack

import (
	"fmt"

	"unikraft/internal/uknetdev"
)

// IPv4Addr is a 4-byte IP address.
type IPv4Addr [4]byte

// String renders dotted-quad form.
func (a IPv4Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
}

// isZero reports the unspecified address.
func (a IPv4Addr) isZero() bool { return a == IPv4Addr{} }

// IP constructs an address from octets.
func IP(a, b, c, d byte) IPv4Addr { return IPv4Addr{a, b, c, d} }

// broadcast is the limited broadcast address.
var broadcast = IPv4Addr{255, 255, 255, 255}

// BroadcastMAC is the Ethernet broadcast address.
var BroadcastMAC = uknetdev.MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// AddrPort is a transport endpoint.
type AddrPort struct {
	Addr IPv4Addr
	Port uint16
}

// String renders host:port.
func (ap AddrPort) String() string { return fmt.Sprintf("%s:%d", ap.Addr, ap.Port) }

// fourTuple identifies one TCP connection.
type fourTuple struct {
	Local, Remote AddrPort
}

// String renders local<->remote.
func (ft fourTuple) String() string { return ft.Local.String() + "<->" + ft.Remote.String() }

// Protocol numbers.
const (
	ProtoICMP = 1
	ProtoTCP  = 6
	ProtoUDP  = 17
)

// EtherTypes.
const (
	EtherTypeIPv4 = 0x0800
	EtherTypeARP  = 0x0806
)
