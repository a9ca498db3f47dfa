package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// Binary framing — format version 3.
//
// Every record, and every part of a checkpoint file, is a
// length-prefixed, CRC32-C-framed binary frame:
//
//	offset  size  field
//	0       1     magic 0xB3
//	1       4     payload length n (uint32, little-endian)
//	5       4     CRC32-C of the payload (uint32, little-endian)
//	9       n     payload
//
// A record's payload is a fixed-order field encoding of Record:
//
//	version   byte (3)
//	kind      byte (1 = submit, 2 = revoke, 3 = availability)
//	seq       uvarint
//	epoch     uvarint
//	flags     byte (bit 0 = infeasible)
//	—— then per kind ——
//	submit        id (uvarint length + bytes), quality/cost/latency
//	              (float64 bits, little-endian), k (uvarint),
//	              sub (uvarint), req (float64 bits, little-endian)
//	revoke        id (uvarint length + bytes)
//	availability  w (float64 bits, little-endian)
//
// checkpoint.go lays a checkpoint out in the same frames.

const (
	// magicV3 opens every binary frame.
	magicV3 = 0xB3
	// binHeaderSize is magic + payload length (u32 LE) + CRC32-C (u32 LE).
	binHeaderSize = 9
	// maxBinaryPayload bounds the length field. Frames are tiny — an ID
	// plus a handful of scalars — so a frame claiming a megabyte-plus
	// payload is corruption, and bounding it keeps recovery from trusting
	// a garbage length into a giant read. Log.Append refuses to write a
	// larger one.
	maxBinaryPayload = 1 << 20
)

// Binary kind codes.
const (
	binKindSubmit       = 1
	binKindRevoke       = 2
	binKindAvailability = 3
)

// flagInfeasible marks a submit whose aggregated requirement was +Inf at
// admission (Record.Infeasible). Req stays 0 on such a submit, so the
// +Inf requirement has one encoding, the flag.
const flagInfeasible = 1 << 0

func binKindOf(kind string) (byte, bool) {
	switch kind {
	case KindSubmit:
		return binKindSubmit, true
	case KindRevoke:
		return binKindRevoke, true
	case KindAvailability:
		return binKindAvailability, true
	}
	return 0, false
}

// AppendRecordBinary appends rec's v3 binary frame to dst and returns the
// extended slice — the Append hot path reuses one scratch buffer this way,
// so encoding a record allocates nothing. It panics on an unknown kind;
// EncodeRecordBinary is the validating wrapper.
func AppendRecordBinary(dst []byte, rec Record) []byte {
	kb, ok := binKindOf(rec.Kind)
	if !ok {
		panic(fmt.Sprintf("wal: AppendRecordBinary: unknown kind %q", rec.Kind))
	}
	start := len(dst)
	dst = beginFrame(dst)
	dst = append(dst, FormatVersion, kb)
	dst = binary.AppendUvarint(dst, rec.Seq)
	dst = binary.AppendUvarint(dst, rec.Epoch)
	var flags byte
	if rec.Infeasible {
		flags |= flagInfeasible
	}
	dst = append(dst, flags)
	switch kb {
	case binKindSubmit:
		dst = appendBinString(dst, rec.ID)
		dst = appendBinFloat(dst, rec.Quality)
		dst = appendBinFloat(dst, rec.Cost)
		dst = appendBinFloat(dst, rec.Latency)
		dst = binary.AppendUvarint(dst, uint64(rec.K))
		dst = binary.AppendUvarint(dst, rec.Sub)
		dst = appendBinFloat(dst, rec.Req)
	case binKindRevoke:
		dst = appendBinString(dst, rec.ID)
	case binKindAvailability:
		dst = appendBinFloat(dst, rec.W)
	}
	endFrame(dst, start)
	return dst
}

// beginFrame appends a frame header whose length and CRC endFrame fills
// in once the payload follows it.
func beginFrame(dst []byte) []byte {
	return append(dst, magicV3, 0, 0, 0, 0, 0, 0, 0, 0)
}

// endFrame seals the frame that starts at dst[start]: everything after
// its header is the payload.
func endFrame(dst []byte, start int) {
	payload := dst[start+binHeaderSize:]
	binary.LittleEndian.PutUint32(dst[start+1:start+5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+5:start+9], crc32.Checksum(payload, castagnoli))
}

// EncodeRecordBinary renders one framed v3 binary record.
func EncodeRecordBinary(rec Record) ([]byte, error) {
	if _, ok := binKindOf(rec.Kind); !ok {
		return nil, fmt.Errorf("%w: %q", ErrKind, rec.Kind)
	}
	return AppendRecordBinary(nil, rec), nil
}

// DecodeRecordBinary parses one binary frame from the front of data,
// returning the record and the number of bytes the frame occupies (so the
// scan loop can step over it — binary frames have no line separator).
// Errors are typed: ErrTorn when data ends mid-frame (the one fault a
// crash legitimately produces), ErrCRC for framing or checksum
// corruption, ErrVersion/ErrKind for CRC-valid payloads this build does
// not speak. FuzzWALDecodeV3 hammers this surface: any input must yield a
// record or a typed error, never a panic.
func DecodeRecordBinary(data []byte) (Record, int, error) {
	payload, size, err := readFrame(data)
	if err != nil {
		return Record{}, 0, err
	}
	rec, err := decodeBinPayload(payload)
	if err != nil {
		return Record{}, 0, err
	}
	return rec, size, nil
}

// readFrame verifies the frame at the front of data and returns its
// payload and the frame's size, leaving the payload's meaning to the
// caller. It fails with ErrTorn when data ends mid-frame and with ErrCRC
// when the bytes are not an intact frame.
func readFrame(data []byte) ([]byte, int, error) {
	if len(data) == 0 {
		return nil, 0, fmt.Errorf("%w: empty frame", ErrTorn)
	}
	if data[0] != magicV3 {
		return nil, 0, fmt.Errorf("%w: not a binary frame (first byte %#02x)", ErrCRC, data[0])
	}
	if len(data) < binHeaderSize {
		return nil, 0, fmt.Errorf("%w: %d-byte frame header", ErrTorn, len(data))
	}
	n := binary.LittleEndian.Uint32(data[1:5])
	if n > maxBinaryPayload {
		return nil, 0, fmt.Errorf("%w: implausible payload length %d", ErrCRC, n)
	}
	size := binHeaderSize + int(n)
	if len(data) < size {
		return nil, 0, fmt.Errorf("%w: %d of %d payload bytes", ErrTorn, len(data)-binHeaderSize, n)
	}
	payload := data[binHeaderSize:size]
	if want, got := binary.LittleEndian.Uint32(data[5:9]), crc32.Checksum(payload, castagnoli); got != want {
		return nil, 0, fmt.Errorf("%w: want %08x, got %08x", ErrCRC, want, got)
	}
	return payload, size, nil
}

// decodeBinPayload parses a CRC-verified payload. Violations past this
// point are not transit corruption (the CRC held) but frames written by a
// different or buggy encoder, so they report ErrVersion/ErrKind.
func decodeBinPayload(p []byte) (Record, error) {
	var rec Record
	if len(p) < 2 {
		return rec, fmt.Errorf("%w: %d-byte payload", ErrKind, len(p))
	}
	if p[0] != FormatVersion {
		return rec, fmt.Errorf("%w: binary frame version %d (this build reads %d)", ErrVersion, p[0], FormatVersion)
	}
	kb := p[1]
	p = p[2:]
	var ok bool
	if rec.Seq, p, ok = readBinUvarint(p); !ok {
		return rec, fmt.Errorf("%w: bad seq varint", ErrKind)
	}
	if rec.Epoch, p, ok = readBinUvarint(p); !ok {
		return rec, fmt.Errorf("%w: bad epoch varint", ErrKind)
	}
	if len(p) < 1 {
		return rec, fmt.Errorf("%w: missing flags byte", ErrKind)
	}
	flags := p[0]
	p = p[1:]
	if flags&^byte(flagInfeasible) != 0 {
		return rec, fmt.Errorf("%w: unknown flag bits %#02x", ErrKind, flags)
	}
	rec.Infeasible = flags&flagInfeasible != 0
	switch kb {
	case binKindSubmit:
		rec.Kind = KindSubmit
		if rec.ID, p, ok = readBinString(p); !ok {
			return rec, fmt.Errorf("%w: bad submit id", ErrKind)
		}
		if rec.Quality, p, ok = readBinFloat(p); !ok {
			return rec, fmt.Errorf("%w: bad quality", ErrKind)
		}
		if rec.Cost, p, ok = readBinFloat(p); !ok {
			return rec, fmt.Errorf("%w: bad cost", ErrKind)
		}
		if rec.Latency, p, ok = readBinFloat(p); !ok {
			return rec, fmt.Errorf("%w: bad latency", ErrKind)
		}
		var k uint64
		if k, p, ok = readBinUvarint(p); !ok || k > math.MaxInt32 {
			return rec, fmt.Errorf("%w: bad k", ErrKind)
		}
		rec.K = int(k)
		if rec.Sub, p, ok = readBinUvarint(p); !ok {
			return rec, fmt.Errorf("%w: bad sub varint", ErrKind)
		}
		if rec.Req, p, ok = readBinFloat(p); !ok {
			return rec, fmt.Errorf("%w: bad req", ErrKind)
		}
	case binKindRevoke:
		rec.Kind = KindRevoke
		if rec.ID, p, ok = readBinString(p); !ok {
			return rec, fmt.Errorf("%w: bad revoke id", ErrKind)
		}
	case binKindAvailability:
		rec.Kind = KindAvailability
		if rec.W, p, ok = readBinFloat(p); !ok {
			return rec, fmt.Errorf("%w: bad w", ErrKind)
		}
	default:
		return rec, fmt.Errorf("%w: binary kind code %d", ErrKind, kb)
	}
	if len(p) != 0 {
		return rec, fmt.Errorf("%w: %d trailing payload bytes", ErrKind, len(p))
	}
	return rec, nil
}

func appendBinString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBinFloat(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

func readBinUvarint(p []byte) (uint64, []byte, bool) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, false
	}
	// Reject non-minimal encodings (a trailing zero continuation group):
	// every value has exactly one frame, so decode-then-re-encode is
	// byte-identical — the property FuzzWALDecodeV3 holds the codec to.
	if n > 1 && p[n-1] == 0 {
		return 0, nil, false
	}
	return v, p[n:], true
}

func readBinString(p []byte) (string, []byte, bool) {
	n, rest, ok := readBinUvarint(p)
	if !ok || n > uint64(len(rest)) {
		return "", nil, false
	}
	return string(rest[:n]), rest[n:], true
}

func readBinFloat(p []byte) (float64, []byte, bool) {
	if len(p) < 8 {
		return 0, nil, false
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(p)), p[8:], true
}
