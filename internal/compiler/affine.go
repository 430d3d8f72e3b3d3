package compiler

func gcd(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// StrideConflictFactor is the cycles a banked scratchpad needs to serve one
// vector whose addresses step by stride across lanes: gcd(stride, banks)
// lanes collide per bank. Stride 0 is a broadcast (one read feeds every
// lane); negative strides behave like their magnitude.
func StrideConflictFactor(stride int64, banks int) int {
	if stride == 0 {
		return 1
	}
	return int(gcd(stride, int64(banks)))
}

// randomWriteFactor models sequentialised random vector writes: the write
// sequencer coalesces same-burst lanes, sustaining ~4 distinct random
// addresses per cycle (Section 2.2: "random write commands must be
// sequentialized and coalesced").
const randomWriteFactor = 4
