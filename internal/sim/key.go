package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"strings"

	"scaleout/internal/noc"
	"scaleout/internal/workload"
)

// A memo key is the configuration's wire kind and a colon ("sim:",
// "structural:") followed by the hex SHA-256 of a fixed binary layout
// of its WireConfig fields:
//
//	form byte   1 = canonical (defaults applied, valid),
//	            0 = the raw fields of an invalid configuration
//	fields      every WireConfig field in declaration order, nested
//	            workload and interconnect fields included: floats as
//	            their IEEE-754 bits (8 bytes, little endian), integers
//	            as varints, strings length-prefixed, booleans as 0/1
//
// Key and Wire build the WireConfig with the same wireFields call, so a
// key covers exactly the fields the wire form carries, and the form
// byte keeps an invalid configuration's key apart from every valid one.
//
// The layout is persistent: the result store (internal/store) is keyed
// by it, so any change to it turns every store cold. The golden probe keys in key_test.go pin it.

// configKey derives the memo key of a configuration's wire fields.
// canonical says whether w was laid out from a valid, defaults-applied
// configuration.
func configKey(w WireConfig, canonical bool) string {
	var buf [512]byte
	b := append(buf[:0], 0)
	if canonical {
		b[0] = 1
	}
	sum := sha256.Sum256(w.appendLayout(b))
	var hx [2 * sha256.Size]byte
	hex.Encode(hx[:], sum[:])
	var sb strings.Builder
	sb.Grow(len(w.Kind) + 1 + len(hx))
	sb.WriteString(w.Kind)
	sb.WriteByte(':')
	sb.Write(hx[:])
	return sb.String()
}

// appendLayout appends the key layout of w's fields to b.
func (w WireConfig) appendLayout(b []byte) []byte {
	b = appendInt(b, w.Version)
	b = appendString(b, w.Kind)
	b = appendWorkload(b, w.Workload)
	b = appendString(b, w.Core)
	b = appendInt(b, w.Cores)
	b = appendFloat(b, w.LLCMB)
	b = appendNet(b, w.Net)
	b = appendInt(b, w.MemChannels)
	b = appendInt(b, w.WarmupCycles)
	b = appendInt(b, w.MeasureCycles)
	b = binary.AppendUvarint(b, w.Seed)
	b = appendBool(b, w.DisableSWScaling)
	return appendInt(b, w.L1MSHRs)
}

func appendWorkload(b []byte, w workload.Workload) []byte {
	b = appendString(b, w.Name)
	b = appendValues(b, w.BaseIPC)
	b = appendFloat(b, w.APKI)
	b = appendFloat(b, w.ConvAPKIFactor)
	b = appendFloat(b, w.IFetchFrac)
	b = appendFloat(b, w.InstrFootprintMB)
	b = appendFloat(b, w.MPKI1)
	b = appendFloat(b, w.MPKIFloor)
	b = appendFloat(b, w.Alpha)
	b = appendFloat(b, w.ShareExp)
	b = appendValues(b, w.MLP)
	b = appendValues(b, w.LLCOverlap)
	b = appendFloat(b, w.SnoopPct)
	b = appendFloat(b, w.WritebackFrac)
	b = appendInt(b, w.ScaleLimit)
	b = appendFloat(b, w.BWBurstFactor)
	b = appendInt(b, w.SWScaleCores)
	b = appendFloat(b, w.SWScaleExp)
	b = appendFloat(b, w.SharedFrac)
	return appendFloat(b, w.SharedWriteFrac)
}

func appendValues(b []byte, v workload.PerCore) []byte {
	b = appendFloat(b, v.Conventional)
	b = appendFloat(b, v.OoO)
	return appendFloat(b, v.InOrder)
}

func appendNet(b []byte, n noc.Wire) []byte {
	b = appendString(b, n.Kind)
	b = appendInt(b, n.Cores)
	b = appendInt(b, n.LLCTiles)
	b = appendFloat(b, n.TileEdge)
	b = appendInt(b, n.LinkBits)
	b = appendFloat(b, n.WireDelta)
	b = appendInt(b, n.Concentration)
	return appendBool(b, n.ExpressLinks)
}

func appendInt(b []byte, v int) []byte { return binary.AppendVarint(b, int64(v)) }

func appendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}
