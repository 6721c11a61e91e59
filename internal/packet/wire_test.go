package packet

// The wire format of a packet: control byte, 32-bit key (big-endian),
// then the optional address and payload words, with odd parity over the
// whole frame. The simulator moves Packet values and prices a link
// transfer by WireSize; these encoders are the byte layout that
// WireSize counts, and the tests here hold the two together.

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

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
