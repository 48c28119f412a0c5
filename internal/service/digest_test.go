package service

import (
	"math"
	"testing"
)

// digestInput is the vector the pinned digests hash: x[i] = 0.5 + i/7.
func digestInput(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 0.5 + float64(i)/7
	}
	return x
}

// TestDigestVectorPinned pins DigestVector on lengths that cover the
// empty input, the word-only path below one stripe, exactly one stripe,
// a stripe plus a tail word, and a full 9216-row vector. The values are
// XXH64 (seed 0) of the vectors' little-endian bytes; length 0 is the
// published XXH64 digest of the empty string.
func TestDigestVectorPinned(t *testing.T) {
	for _, c := range []struct {
		n    int
		want string
	}{
		{0, "ef46db3751d8e999"},
		{1, "48cb5e118059da42"},
		{3, "85163a54eb23671b"},
		{4, "7508858dc2e48b7c"},
		{5, "c32b7d6b46456b38"},
		{9216, "1436c0d52cf14393"},
	} {
		if got := DigestVector(digestInput(c.n)); got != c.want {
			t.Errorf("DigestVector(len %d) = %s, want %s", c.n, got, c.want)
		}
	}
}

// TestHasherStreamingMatchesBulk: feeding the same words one at a time,
// or as floats split at every offset, gives the same hash as one bulk
// call — the contract contentFingerprint relies on.
func TestHasherStreamingMatchesBulk(t *testing.T) {
	x := digestInput(13)
	want := DigestVector(x)
	for split := 0; split <= len(x); split++ {
		h := newHasher()
		for _, v := range x[:split] {
			h.word(math.Float64bits(v))
		}
		h.floats(x[split:])
		if got := h.hex(); got != want {
			t.Fatalf("split at %d: %s, want %s", split, got, want)
		}
	}
}

// TestDigestVectorDistinguishes: any single flipped bit of any element
// changes the digest (exhaustive for n ≤ 5), as do swapping two unequal
// elements and +0 against −0.
func TestDigestVectorDistinguishes(t *testing.T) {
	for n := 1; n <= 5; n++ {
		x := digestInput(n)
		base := DigestVector(x)
		for i := range x {
			orig := x[i]
			for b := 0; b < 64; b++ {
				x[i] = math.Float64frombits(math.Float64bits(orig) ^ 1<<b)
				if DigestVector(x) == base {
					t.Fatalf("n=%d: flipping bit %d of element %d kept digest %s", n, b, i, base)
				}
			}
			x[i] = orig
		}
		for i := range x {
			for j := i + 1; j < n; j++ {
				x[i], x[j] = x[j], x[i]
				if DigestVector(x) == base {
					t.Fatalf("n=%d: swapping elements %d and %d kept digest %s", n, i, j, base)
				}
				x[i], x[j] = x[j], x[i]
			}
		}
	}
	if DigestVector([]float64{0}) == DigestVector([]float64{math.Copysign(0, -1)}) {
		t.Fatal("+0 and -0 digest equal")
	}
}

var digestSink string

// BenchmarkDigestVector hashes one 9216-row vector, the size of the
// largest service-resident matrix in the serve-mixed benchmark.
func BenchmarkDigestVector(b *testing.B) {
	x := digestInput(9216)
	b.SetBytes(int64(len(x)) * 8)
	for b.Loop() {
		digestSink = DigestVector(x)
	}
}
