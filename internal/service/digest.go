package service

import (
	"fmt"
	"math"
	"math/bits"
)

// The service hashes vectors and matrices with XXH64 (seed 0) over
// their little-endian 64-bit words: four independent multiply-rotate
// lanes over 32-byte stripes, a merge, the remaining words one at a
// time, and the final avalanche. Over a []float64 the result equals
// XXH64 of the vector's little-endian bytes.
const (
	prime1 uint64 = 0x9e3779b185ebca87
	prime2 uint64 = 0xc2b2ae3d27d4eb4f
	prime3 uint64 = 0x165667b19e3779f9
	prime4 uint64 = 0x85ebca77c2b2ae63
	prime5 uint64 = 0x27d4eb2f165667c5
)

func round(acc, w uint64) uint64 {
	return bits.RotateLeft64(acc+w*prime2, 31) * prime1
}

func mergeRound(h, v uint64) uint64 {
	return (h^round(0, v))*prime1 + prime4
}

// hasher is a streaming XXH64 over 64-bit words. The zero value is not
// ready; start from newHasher.
type hasher struct {
	v     [4]uint64 // lane accumulators
	buf   [4]uint64 // words not yet folded into a stripe
	nbuf  int
	words uint64 // words written so far
}

func newHasher() hasher {
	// The lane seeds prime1+prime2, prime2, 0 and -prime1, mod 2⁶⁴.
	return hasher{v: [4]uint64{0x60ea27eeadc0b5d6, prime2, 0, 0x61c8864e7a143579}}
}

// word appends one 64-bit word.
func (h *hasher) word(w uint64) {
	h.buf[h.nbuf] = w
	h.nbuf++
	h.words++
	if h.nbuf == 4 {
		h.v[0] = round(h.v[0], h.buf[0])
		h.v[1] = round(h.v[1], h.buf[1])
		h.v[2] = round(h.v[2], h.buf[2])
		h.v[3] = round(h.v[3], h.buf[3])
		h.nbuf = 0
	}
}

// floats appends the bit patterns of y, whole stripes straight from
// the slice.
func (h *hasher) floats(y []float64) {
	for len(y) > 0 && h.nbuf != 0 {
		h.word(math.Float64bits(y[0]))
		y = y[1:]
	}
	v0, v1, v2, v3 := h.v[0], h.v[1], h.v[2], h.v[3]
	stripes := len(y) &^ 3
	for k := 0; k < stripes; k += 4 {
		s := y[k : k+4 : k+4]
		v0 = round(v0, math.Float64bits(s[0]))
		v1 = round(v1, math.Float64bits(s[1]))
		v2 = round(v2, math.Float64bits(s[2]))
		v3 = round(v3, math.Float64bits(s[3]))
	}
	h.v = [4]uint64{v0, v1, v2, v3}
	h.words += uint64(stripes)
	for _, f := range y[stripes:] {
		h.word(math.Float64bits(f))
	}
}

// sum returns the hash of everything written so far.
func (h *hasher) sum() uint64 {
	var acc uint64
	if h.words >= 4 {
		acc = bits.RotateLeft64(h.v[0], 1) + bits.RotateLeft64(h.v[1], 7) +
			bits.RotateLeft64(h.v[2], 12) + bits.RotateLeft64(h.v[3], 18)
		for _, v := range h.v {
			acc = mergeRound(acc, v)
		}
	} else {
		acc = prime5
	}
	acc += 8 * h.words
	for _, w := range h.buf[:h.nbuf] {
		acc = bits.RotateLeft64(acc^round(0, w), 27)*prime1 + prime4
	}
	acc ^= acc >> 33
	acc *= prime2
	acc ^= acc >> 29
	acc *= prime3
	acc ^= acc >> 32
	return acc
}

func (h *hasher) hex() string { return fmt.Sprintf("%016x", h.sum()) }

// DigestVector hashes the float64 bit patterns of y (XXH64 of its
// little-endian bytes, as 16 hex digits), so two vectors digest equal
// exactly when they are bit-identical — the same contract as the
// hostbench digest lines.
func DigestVector(y []float64) string {
	h := newHasher()
	h.floats(y)
	return h.hex()
}
