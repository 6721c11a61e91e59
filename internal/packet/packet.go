// Package packet defines the three SpiNNaker packet formats carried by the
// Communications NoC and inter-chip links (paper sections 4 and 5.2):
//
//   - Multicast (MC): 40-bit neural spike events using Address Event
//     Representation — an 8-bit control header plus a 32-bit routing key
//     identifying the neuron that fired. An optional 32-bit payload may
//     be appended.
//   - Point-to-point (P2P): system management traffic with conventional
//     16-bit source and destination chip addresses, routed
//     algorithmically.
//   - Nearest-neighbour (NN): chip-to-adjacent-chip traffic used during
//     boot, fault recovery and coordinate flood.
package packet

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"spinngo/internal/snap"
)

// Type discriminates the three router packet classes.
type Type uint8

const (
	// MC is a multicast neural-event packet (AER).
	MC Type = iota
	// P2P is a point-to-point system-management packet.
	P2P
	// NN is a nearest-neighbour packet.
	NN
)

// String names the packet type as in the paper ("mc", "p2p", "nn").
func (t Type) String() string {
	switch t {
	case MC:
		return "mc"
	case P2P:
		return "p2p"
	case NN:
		return "nn"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Control-byte layout. The real chip packs parity, timestamp, payload
// flag, emergency-routing state and type into the 8-bit header; we follow
// that structure.
const (
	ctrlParity    uint8 = 1 << 0 // odd parity over the whole packet
	ctrlTimestamp uint8 = 3 << 1 // 2-bit coarse timestamp phase
	ctrlPayload   uint8 = 1 << 3 // 32-bit payload follows
	ctrlEmergency uint8 = 3 << 4 // emergency-routing field (mc only)
	ctrlTypeShift       = 6      // top two bits: packet type
)

// Emergency-routing field values for MC packets (paper Fig 8). A packet
// diverted around a blocked link is marked so the next router knows to
// steer it back onto its normal path.
type EmergencyState uint8

const (
	// EmNormal: the packet is on its normal route.
	EmNormal EmergencyState = 0
	// EmFirstLeg: the packet was diverted and is on the first side of
	// the triangle around the blocked link.
	EmFirstLeg EmergencyState = 1
	// EmSecondLeg: the packet is on the second side and must rejoin the
	// normal route at the next router.
	EmSecondLeg EmergencyState = 2
)

// Packet is one router packet. The zero value is an MC packet with key 0.
//
// Fields beyond the wire format (InjectedAt, Hops, EmergencyHops) are
// simulation instrumentation and are not serialised.
type Packet struct {
	Type       Type
	Key        uint32 // MC: AER routing key. NN: command word.
	Payload    uint32 // optional payload word
	HasPayload bool
	Emergency  EmergencyState // MC only
	Timestamp  uint8          // 2-bit coarse timestamp phase

	// P2P addressing (16-bit chip addresses: y in high byte, x in low).
	SrcAddr uint16
	DstAddr uint16

	// Instrumentation (not part of the wire encoding).
	Hops          int // total router-to-router hops taken
	EmergencyHops int // hops taken on emergency detours
}

// Snap codes every packet field for the machine snapshot, including the
// Hops/EmergencyHops instrumentation: in-flight packets must resume with
// their hop counts intact or delivered-packet telemetry diverges after a
// restore. Flit blobs, link queues, the dropped-packet register and
// kernel event queues all use this one layout.
func (p *Packet) Snap(c *snap.Codec) {
	c.U8((*uint8)(&p.Type))
	c.U32(&p.Key)
	c.U32(&p.Payload)
	c.Bool(&p.HasPayload)
	c.U8((*uint8)(&p.Emergency))
	c.U8(&p.Timestamp)
	c.U16(&p.SrcAddr)
	c.U16(&p.DstAddr)
	c.Int(&p.Hops)
	c.Int(&p.EmergencyHops)
}

// NewMC returns a multicast packet carrying the given AER key.
func NewMC(key uint32) Packet { return Packet{Type: MC, Key: key} }

// NewMCPayload returns a multicast packet with a payload word.
func NewMCPayload(key, payload uint32) Packet {
	return Packet{Type: MC, Key: key, Payload: payload, HasPayload: true}
}

// NewP2P returns a point-to-point packet from src to dst carrying data.
func NewP2P(src, dst uint16, data uint32) Packet {
	return Packet{Type: P2P, SrcAddr: src, DstAddr: dst, Key: data}
}

// NewNN returns a nearest-neighbour packet carrying command and data.
func NewNN(command uint32, data uint32) Packet {
	return Packet{Type: NN, Key: command, Payload: data, HasPayload: true}
}

// P2PAddr packs chip mesh coordinates into a 16-bit p2p address.
func P2PAddr(x, y int) uint16 { return uint16(y&0xff)<<8 | uint16(x&0xff) }

// P2PCoords unpacks a 16-bit p2p address into mesh coordinates.
func P2PCoords(a uint16) (x, y int) { return int(a & 0xff), int(a >> 8) }

// control assembles the 8-bit header (without the parity bit, which is
// computed over the serialised packet).
func (p Packet) control() uint8 {
	c := uint8(p.Type) << ctrlTypeShift
	c |= (p.Timestamp & 3) << 1
	if p.HasPayload {
		c |= ctrlPayload
	}
	if p.Type == MC {
		c |= uint8(p.Emergency&3) << 4
	}
	return c
}

// MinWireSize is the smallest serialised packet (a payload-less 40-bit
// multicast or nearest-neighbour packet). No frame can occupy a link
// for less than the time this many bytes take to serialise, which is
// why it enters the sharded engine's cross-shard latency bound.
const MinWireSize = 5

// WireSize reports the serialised size in bytes: 5 for a 40-bit packet,
// 9 with payload, 7/11 for p2p (which carries two address halfwords).
func (p Packet) WireSize() int {
	n := 5
	if p.Type == P2P {
		n += 2 // source address travels alongside the 16-bit dest in the key field
	}
	if p.HasPayload {
		n += 4
	}
	return n
}

// MarshalBinary serialises the packet to its wire format: control byte,
// 32-bit key (big-endian), then optional address and payload words. The
// parity bit in the control byte is set so the whole packet has odd
// parity, as on the real interconnect.
func (p Packet) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, p.WireSize())
	buf = append(buf, p.control())
	var key uint32
	switch p.Type {
	case P2P:
		key = uint32(p.DstAddr)<<16 | p.Key&0xffff
	default:
		key = p.Key
	}
	var w [4]byte
	binary.BigEndian.PutUint32(w[:], key)
	buf = append(buf, w[:]...)
	if p.Type == P2P {
		var s [2]byte
		binary.BigEndian.PutUint16(s[:], p.SrcAddr)
		buf = append(buf, s[:]...)
	}
	if p.HasPayload {
		binary.BigEndian.PutUint32(w[:], p.Payload)
		buf = append(buf, w[:]...)
	}
	// Set the parity bit so total ones count is odd.
	ones := 0
	for _, b := range buf {
		ones += bits.OnesCount8(b)
	}
	if ones%2 == 0 {
		buf[0] |= ctrlParity
	}
	return buf, nil
}

// UnmarshalBinary parses a packet from wire format, checking parity.
func (p *Packet) UnmarshalBinary(data []byte) error {
	if len(data) < 5 {
		return fmt.Errorf("packet: short frame (%d bytes)", len(data))
	}
	ones := 0
	for _, b := range data {
		ones += bits.OnesCount8(b)
	}
	if ones%2 != 1 {
		return fmt.Errorf("packet: parity error")
	}
	ctrl := data[0]
	p.Type = Type(ctrl >> ctrlTypeShift)
	p.Timestamp = (ctrl >> 1) & 3
	p.HasPayload = ctrl&ctrlPayload != 0
	p.Emergency = EmNormal
	if p.Type == MC {
		p.Emergency = EmergencyState((ctrl >> 4) & 3)
	}
	key := binary.BigEndian.Uint32(data[1:5])
	rest := data[5:]
	if p.Type == P2P {
		if len(rest) < 2 {
			return fmt.Errorf("packet: p2p frame missing source address")
		}
		p.DstAddr = uint16(key >> 16)
		p.Key = key & 0xffff
		p.SrcAddr = binary.BigEndian.Uint16(rest[:2])
		rest = rest[2:]
	} else {
		p.Key = key
		p.SrcAddr, p.DstAddr = 0, 0
	}
	if p.HasPayload {
		if len(rest) < 4 {
			return fmt.Errorf("packet: frame missing payload")
		}
		p.Payload = binary.BigEndian.Uint32(rest[:4])
	} else {
		p.Payload = 0
	}
	return nil
}

// String renders a compact human-readable description.
func (p Packet) String() string {
	switch p.Type {
	case P2P:
		sx, sy := P2PCoords(p.SrcAddr)
		dx, dy := P2PCoords(p.DstAddr)
		return fmt.Sprintf("p2p (%d,%d)->(%d,%d) data=%#x", sx, sy, dx, dy, p.Key)
	case NN:
		return fmt.Sprintf("nn cmd=%#x data=%#x", p.Key, p.Payload)
	default:
		s := fmt.Sprintf("mc key=%#08x", p.Key)
		if p.HasPayload {
			s += fmt.Sprintf(" payload=%#x", p.Payload)
		}
		if p.Emergency != EmNormal {
			s += fmt.Sprintf(" em=%d", p.Emergency)
		}
		return s
	}
}
