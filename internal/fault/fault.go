// Package fault defines seeded, deterministic fault plans for the
// Plasticine fabric and memory system: disabled PCU/PMU tiles and switches
// in the 16x8 array, downed DRAM channels, per-request latency spikes and
// transient burst failures. A plan is generated once from a Spec and a
// chip configuration; every consumer (placer, router, DRAM model,
// simulator) reads the same plan, so a fixed seed reproduces the identical
// degraded system across runs. Yield-aware mapping around disabled tiles
// follows the spatial re-allocation approach of CGRA mapping work (see
// PAPERS.md: aligned compute/communication provisioning, DR-CGRA).
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"plasticine/internal/arch"
	"plasticine/internal/dram"
)

// ErrBadSpec is wrapped by every Spec parsing/validation error.
var ErrBadSpec = errors.New("fault: bad fault spec")

// Spec is the user-facing description of a fault scenario, parseable from
// the CLI form "seed=N,pcu=K,pmu=K,sw=K,chan=K,spike=P,retry=P".
type Spec struct {
	Seed int64

	// Fabric faults: number of units of each kind to disable.
	PCUs     int // disabled Pattern Compute Unit tiles
	PMUs     int // disabled Pattern Memory Unit tiles
	Switches int // disabled switch sites (routes detour around them)

	// Memory-system faults.
	Chans         int     // downed DRAM channels (traffic remaps to healthy ones)
	SpikeProb     float64 // per-burst probability of a latency spike
	SpikeCycles   int     // extra cycles a spiked burst takes (default 200)
	TransientProb float64 // per-burst probability of a transient failure needing retry
	MaxRetries    int     // bounded retries per burst (default 3)
	RetryBackoff  int     // base backoff in cycles, doubled per attempt (default 16)

	// Events are timed mid-run faults ("kill-pcu@5000"); victims are drawn
	// deterministically at plan time from the resources still healthy.
	Events []EventSpec
}

// withDefaults fills derived defaults for enabled fault classes.
func (s Spec) withDefaults() Spec {
	if s.SpikeProb > 0 && s.SpikeCycles == 0 {
		s.SpikeCycles = 200
	}
	if s.TransientProb > 0 {
		if s.MaxRetries == 0 {
			s.MaxRetries = 3
		}
		if s.RetryBackoff == 0 {
			s.RetryBackoff = 16
		}
	}
	return s
}

// Zero reports whether the spec injects no faults at all.
func (s Spec) Zero() bool {
	return s.PCUs == 0 && s.PMUs == 0 && s.Switches == 0 &&
		s.Chans == 0 && s.SpikeProb == 0 && s.TransientProb == 0 &&
		len(s.Events) == 0
}

// ParseSpec parses the CLI fault syntax: comma-separated key=value pairs.
// Keys: seed, pcu, pmu, sw, chan, spike, spikecycles, retry, maxretries,
// backoff. Timed-event terms use "kill-<kind>@<cycle>" (kinds: pcu, pmu,
// sw, chan) and may repeat. An empty string yields the zero spec.
func ParseSpec(s string) (Spec, error) {
	var spec Spec
	if strings.TrimSpace(s) == "" {
		return spec, nil
	}
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		if strings.HasPrefix(field, "kill-") {
			ev, err := parseEventTerm(field)
			if err != nil {
				return spec, err
			}
			spec.Events = append(spec.Events, ev)
			continue
		}
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			return spec, fmt.Errorf("%w: %q is not key=value", ErrBadSpec, field)
		}
		intVal := func() (int, error) {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return 0, fmt.Errorf("%w: %s=%q wants a non-negative integer", ErrBadSpec, k, v)
			}
			return n, nil
		}
		probVal := func() (float64, error) {
			p, err := strconv.ParseFloat(v, 64)
			if err != nil || p < 0 || p > 1 {
				return 0, fmt.Errorf("%w: %s=%q wants a probability in [0,1]", ErrBadSpec, k, v)
			}
			return p, nil
		}
		var err error
		switch k {
		case "seed":
			spec.Seed, err = strconv.ParseInt(v, 10, 64)
			if err != nil {
				err = fmt.Errorf("%w: seed=%q wants an integer", ErrBadSpec, v)
			}
		case "pcu":
			spec.PCUs, err = intVal()
		case "pmu":
			spec.PMUs, err = intVal()
		case "sw":
			spec.Switches, err = intVal()
		case "chan":
			spec.Chans, err = intVal()
		case "spike":
			spec.SpikeProb, err = probVal()
		case "spikecycles":
			spec.SpikeCycles, err = intVal()
		case "retry":
			spec.TransientProb, err = probVal()
		case "maxretries":
			spec.MaxRetries, err = intVal()
		case "backoff":
			spec.RetryBackoff, err = intVal()
		default:
			err = fmt.Errorf("%w: unknown key %q", ErrBadSpec, k)
		}
		if err != nil {
			return spec, err
		}
	}
	return spec, nil
}

// Coord is a unit or switch position on the fabric grid.
type Coord struct{ X, Y int }

// Plan is a concrete fault assignment for one chip configuration. All
// fields are derived deterministically from (Spec, arch.Params); the same
// inputs always produce the same plan.
type Plan struct {
	Spec Spec

	disabledPCU map[Coord]bool
	disabledPMU map[Coord]bool
	disabledSw  map[Coord]bool
	downChan    []bool  // indexed by channel
	events      []Event // timed mid-run faults, in firing order
}

// NewPlan draws a deterministic fault assignment for the given chip. It
// fails (wrapping ErrBadSpec) if the spec disables more units than exist.
func NewPlan(spec Spec, p arch.Params) (*Plan, error) {
	spec = spec.withDefaults()
	cols, rows := p.Chip.Cols, p.Chip.Rows
	var pcuSlots, pmuSlots, swSlots []Coord
	for y := 0; y < rows; y++ {
		for x := 0; x < cols; x++ {
			c := Coord{x, y}
			swSlots = append(swSlots, c)
			if (x+y)%2 == 0 {
				pcuSlots = append(pcuSlots, c)
			} else {
				pmuSlots = append(pmuSlots, c)
			}
		}
	}
	evCount := func(k EventKind) int {
		n := 0
		for _, e := range spec.Events {
			if e.Kind == k {
				n++
			}
		}
		return n
	}
	if n := spec.PCUs + evCount(KillPCU); n > len(pcuSlots) {
		return nil, fmt.Errorf("%w: pcu=%d exceeds %d PCU tiles on the chip", ErrBadSpec, n, len(pcuSlots))
	}
	if n := spec.PMUs + evCount(KillPMU); n > len(pmuSlots) {
		return nil, fmt.Errorf("%w: pmu=%d exceeds %d PMU tiles on the chip", ErrBadSpec, n, len(pmuSlots))
	}
	if n := spec.Switches + evCount(KillSwitch); n > len(swSlots) {
		return nil, fmt.Errorf("%w: sw=%d exceeds %d switch sites", ErrBadSpec, n, len(swSlots))
	}
	if n := spec.Chans + evCount(KillChan); n > p.Chip.DDRChannels {
		return nil, fmt.Errorf("%w: chan=%d exceeds %d DRAM channels", ErrBadSpec, n, p.Chip.DDRChannels)
	}

	rng := rand.New(rand.NewSource(spec.Seed))
	pick := func(slots []Coord, k int) map[Coord]bool {
		out := make(map[Coord]bool, k)
		// Partial Fisher-Yates over a copy: deterministic for a fixed seed.
		s := append([]Coord(nil), slots...)
		for i := 0; i < k; i++ {
			j := i + rng.Intn(len(s)-i)
			s[i], s[j] = s[j], s[i]
			out[s[i]] = true
		}
		return out
	}
	plan := &Plan{
		Spec:        spec,
		disabledPCU: pick(pcuSlots, spec.PCUs),
		disabledPMU: pick(pmuSlots, spec.PMUs),
		disabledSw:  pick(swSlots, spec.Switches),
		downChan:    make([]bool, p.Chip.DDRChannels),
	}
	for i := 0; i < spec.Chans; i++ {
		// Draw distinct channels.
		for {
			c := rng.Intn(p.Chip.DDRChannels)
			if !plan.downChan[c] {
				plan.downChan[c] = true
				break
			}
		}
	}
	if err := plan.scheduleEvents(spec.Events, pcuSlots, pmuSlots, swSlots,
		p.Chip.DDRChannels, rng); err != nil {
		return nil, err
	}
	return plan, nil
}

// ManualPlan builds a plan from explicit fault sites instead of a seeded
// draw — for tests and for replaying a measured yield map. downChans is
// indexed by DRAM channel; a nil slice means all channels are up.
func ManualPlan(pcus, pmus, sws []Coord, downChans []bool) *Plan {
	toSet := func(cs []Coord) map[Coord]bool {
		m := make(map[Coord]bool, len(cs))
		for _, c := range cs {
			m[c] = true
		}
		return m
	}
	plan := &Plan{
		disabledPCU: toSet(pcus),
		disabledPMU: toSet(pmus),
		disabledSw:  toSet(sws),
		downChan:    append([]bool(nil), downChans...),
	}
	for _, d := range downChans {
		if d {
			plan.Spec.Chans++
		}
	}
	plan.Spec.PCUs = len(plan.disabledPCU)
	plan.Spec.PMUs = len(plan.disabledPMU)
	plan.Spec.Switches = len(plan.disabledSw)
	return plan
}

// Clone returns a deep copy of the plan. Recovery extends a copy as timed
// events fire (Extend marks victims statically dead), so the plan a
// mapping was compiled under stays as it was. Nil-safe.
func (p *Plan) Clone() *Plan {
	if p == nil {
		return nil
	}
	cloneSet := func(m map[Coord]bool) map[Coord]bool {
		if m == nil {
			return nil
		}
		out := make(map[Coord]bool, len(m))
		for c, v := range m {
			out[c] = v
		}
		return out
	}
	c := &Plan{
		Spec:        p.Spec,
		disabledPCU: cloneSet(p.disabledPCU),
		disabledPMU: cloneSet(p.disabledPMU),
		disabledSw:  cloneSet(p.disabledSw),
		downChan:    append([]bool(nil), p.downChan...),
		events:      append([]Event(nil), p.events...),
	}
	c.Spec.Events = append([]EventSpec(nil), p.Spec.Events...)
	return c
}

// PCUDisabled reports whether the PCU tile at (x, y) is faulted. Nil-safe.
func (p *Plan) PCUDisabled(x, y int) bool {
	return p != nil && p.disabledPCU[Coord{x, y}]
}

// PMUDisabled reports whether the PMU tile at (x, y) is faulted. Nil-safe.
func (p *Plan) PMUDisabled(x, y int) bool {
	return p != nil && p.disabledPMU[Coord{x, y}]
}

// SwitchDisabled reports whether the switch at (x, y) is faulted. Nil-safe.
func (p *Plan) SwitchDisabled(x, y int) bool {
	return p != nil && p.disabledSw[Coord{x, y}]
}

// NumDisabledPCUs returns the count of faulted PCU tiles. Nil-safe.
func (p *Plan) NumDisabledPCUs() int {
	if p == nil {
		return 0
	}
	return len(p.disabledPCU)
}

// NumDisabledPMUs returns the count of faulted PMU tiles. Nil-safe.
func (p *Plan) NumDisabledPMUs() int {
	if p == nil {
		return 0
	}
	return len(p.disabledPMU)
}

// HasSwitchFaults reports whether any switch site is disabled. Nil-safe.
func (p *Plan) HasSwitchFaults() bool {
	return p != nil && len(p.disabledSw) > 0
}

// DRAMFaults derives the memory-system fault configuration, or nil when the
// plan injects no DRAM faults (so the unfaulted DRAM path stays untouched).
// Nil-safe.
func (p *Plan) DRAMFaults() *dram.Faults {
	if p == nil {
		return nil
	}
	s := p.Spec
	if s.Chans == 0 && s.SpikeProb == 0 && s.TransientProb == 0 {
		return nil
	}
	return &dram.Faults{
		Seed:          s.Seed,
		SpikeProb:     s.SpikeProb,
		SpikeCycles:   s.SpikeCycles,
		TransientProb: s.TransientProb,
		MaxRetries:    s.MaxRetries,
		RetryBackoff:  s.RetryBackoff,
		Down:          append([]bool(nil), p.downChan...),
	}
}

// sortedCoords returns map keys in row-major order for stable rendering.
func sortedCoords(m map[Coord]bool) []Coord {
	out := make([]Coord, 0, len(m))
	for c := range m {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Y != out[j].Y {
			return out[i].Y < out[j].Y
		}
		return out[i].X < out[j].X
	})
	return out
}

// String renders the plan for diagnostics; byte-identical for equal plans.
func (p *Plan) String() string {
	if p == nil {
		return "fault: no plan"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "fault plan (seed %d):", p.Spec.Seed)
	section := func(name string, m map[Coord]bool) {
		if len(m) == 0 {
			return
		}
		fmt.Fprintf(&b, " %s[", name)
		for i, c := range sortedCoords(m) {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d,%d", c.X, c.Y)
		}
		b.WriteByte(']')
	}
	section("pcu", p.disabledPCU)
	section("pmu", p.disabledPMU)
	section("sw", p.disabledSw)
	var down []int
	for c, d := range p.downChan {
		if d {
			down = append(down, c)
		}
	}
	if len(down) > 0 {
		fmt.Fprintf(&b, " chan%v", down)
	}
	if p.Spec.SpikeProb > 0 {
		fmt.Fprintf(&b, " spike=%g/+%dcy", p.Spec.SpikeProb, p.Spec.SpikeCycles)
	}
	if p.Spec.TransientProb > 0 {
		fmt.Fprintf(&b, " retry=%g/max%d", p.Spec.TransientProb, p.Spec.MaxRetries)
	}
	for _, ev := range p.events {
		fmt.Fprintf(&b, " %v", ev)
	}
	if p.Spec.Zero() {
		b.WriteString(" (no faults)")
	}
	return b.String()
}
