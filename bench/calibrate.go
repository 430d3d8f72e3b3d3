package bench

import (
	"sync"
	"time"
)

// The machines this benchmark runs on are shared, and their speed drifts by
// tens of percent over minutes, which moves every host time with it. So
// every reported time is scaled to a reference speed: multiplied by
// calibRef / c, where c is the median time of a fixed kernel measured in
// the same process, between the ops of the same pass. The kernel mixes what
// the workloads do — integer work, dependent loads and random reads and
// writes over several megabytes — and allocates nothing, so the code under
// test cannot change its cost.

// calibRef is the kernel's time on the machine the baseline in README.md
// was measured on; there, scaled times read as seconds.
const calibRef = 0.0013

const (
	calibTableBits = 20 // 4 MB of uint32
	calibRingLen   = 1 << 18
	calibIters     = 60000
)

var calibData struct {
	once  sync.Once
	table []uint32
	ring  []int32 // one cycle through every index, in random order
}

var calibSink uint32

func initCalibration() {
	calibData.table = make([]uint32, 1<<calibTableBits)
	ring := make([]int32, calibRingLen)
	for i := range ring {
		ring[i] = int32(i)
	}
	// Sattolo's shuffle makes the permutation a single cycle, so the chase
	// below visits the whole ring.
	x := uint32(88172645)
	for i := len(ring) - 1; i > 0; i-- {
		x = xorshift(x)
		j := int(x % uint32(i))
		ring[i], ring[j] = ring[j], ring[i]
	}
	calibData.ring = ring
}

func xorshift(x uint32) uint32 {
	x ^= x << 13
	x ^= x >> 17
	x ^= x << 5
	return x
}

// calibrate returns the calibration kernel's time in seconds. It runs the
// kernel twice and times the second run: the first brings the kernel's data
// back into cache, so what the last op left in the cache does not change the
// time.
func calibrate() float64 {
	calibData.once.Do(initCalibration)
	kernel()
	t0 := time.Now()
	kernel()
	return time.Since(t0).Seconds()
}

func kernel() {
	table, ring := calibData.table, calibData.ring
	const mask = 1<<calibTableBits - 1
	x, j, s := uint32(2463534242), int32(0), uint32(0)
	for i := 0; i < calibIters; i++ {
		x = xorshift(x)
		s += table[x&mask]
		table[(x>>7)&mask] += s
		j = ring[j]
		s ^= uint32(j)
	}
	calibSink += s
}
