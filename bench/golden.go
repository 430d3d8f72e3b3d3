package bench

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"plasticine/internal/core"
	"plasticine/internal/sim"
)

//go:embed golden.json
var goldenJSON []byte

// Identity is what one deterministic op must reproduce exactly: simulated
// counts for a benchmark evaluation, or a hash of rendered output.
type Identity struct {
	Cycles         int64  `json:"cycles,omitempty"`
	DRAMBytes      int64  `json:"dram_bytes,omitempty"`
	Retries        int64  `json:"retries,omitempty"`
	Spikes         int64  `json:"spikes,omitempty"`
	RecoveryEvents int64  `json:"recovery_events,omitempty"`
	DrainCycles    int64  `json:"drain_cycles,omitempty"`
	ReconfigCycles int64  `json:"reconfig_cycles,omitempty"`
	Hash           string `json:"hash,omitempty"`
}

func (id *Identity) add(o Identity) {
	id.Cycles += o.Cycles
	id.DRAMBytes += o.DRAMBytes
	id.Retries += o.Retries
	id.Spikes += o.Spikes
	id.RecoveryEvents += o.RecoveryEvents
	id.DrainCycles += o.DrainCycles
	id.ReconfigCycles += o.ReconfigCycles
}

func (id *Identity) setRecovery(r *sim.RecoveryStats) {
	if r != nil {
		id.RecoveryEvents = int64(len(r.Events))
		id.DrainCycles, id.ReconfigCycles = r.DrainCycles, r.ReconfigCycles
	}
}

func identityOfResult(r *sim.Result) Identity {
	id := Identity{Cycles: r.Cycles, DRAMBytes: r.DRAM.BytesRead + r.DRAM.BytesWritten,
		Retries: r.DRAM.Retries, Spikes: r.DRAM.LatencySpikes}
	id.setRecovery(r.Recovery)
	return id
}

func identityOfBench(r *core.BenchResult) Identity {
	// BenchResult carries DRAM traffic in MB (bytes / 1e6); rounding
	// recovers the byte count exactly.
	id := Identity{Cycles: r.Cycles, DRAMBytes: int64(math.Round((r.DRAMReadMB + r.DRAMWriteMB) * 1e6)),
		Retries: r.Retries, Spikes: r.LatencySpikes}
	id.setRecovery(r.Recovery)
	return id
}

// hashText identifies rendered output in golden.json.
func hashText(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// Golden is the checked-in identity file, golden.json. It is written only by
// `go test -run TestGolden -update`.
type Golden struct {
	// Table7SpeedupErr is exp(mean over the 13 benchmarks of
	// |ln(speedup / paper speedup)|).
	Table7SpeedupErr float64 `json:"table7_speedup_err"`
	// Entries maps goldenKey(workload, seed, op) to the op's identity.
	Entries map[string]Identity `json:"entries"`
}

// goldenKey names one op's entry. sparse-faulted ops key by fault seed;
// ops no seed can change use seed < 0.
func goldenKey(workload string, seed int64, op string) string {
	if seed < 0 {
		return workload + "/" + op
	}
	return fmt.Sprintf("%s/seed=%d/%s", workload, seed, op)
}

func loadGolden() (*Golden, error) {
	var g Golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("bench: golden.json: %w", err)
	}
	return &g, nil
}

// checker compares op identities with golden.json. An op the file does not
// cover is compared with its first result in this run instead, so every
// pass must still agree with the first.
type checker struct {
	mu         sync.Mutex
	golden     *Golden
	seen       map[string]Identity
	speedupErr float64 // first Table 7 accuracy seen
}

func newChecker(g *Golden) *checker {
	return &checker{golden: g, seen: map[string]Identity{}}
}

func (c *checker) check(key string, got Identity) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if want, ok := c.golden.Entries[key]; ok {
		if got != want {
			return fmt.Errorf("%s: got %+v, golden.json has %+v", key, got, want)
		}
		return nil
	}
	if first, ok := c.seen[key]; ok && got != first {
		return fmt.Errorf("%s: got %+v, an earlier pass got %+v", key, got, first)
	}
	c.seen[key] = got
	return nil
}

// checkSpeedupErr compares a Table 7 accuracy figure with the golden one,
// or without one with the first figure seen. The tolerance only absorbs
// summation order.
func (c *checker) checkSpeedupErr(got float64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	want := c.golden.Table7SpeedupErr
	if want == 0 {
		want = c.speedupErr
	}
	if want == 0 {
		c.speedupErr = got
		return nil
	}
	if math.Abs(got-want) > 1e-9*want {
		return fmt.Errorf("got %.12g, expected %.12g", got, want)
	}
	return nil
}
