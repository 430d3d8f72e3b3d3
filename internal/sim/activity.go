// Package sim is the cycle-level performance simulator for compiled
// Plasticine programs — the substitute for the paper's VCS + DRAMSim2
// cycle-accurate setup (Section 4.2). A traced functional execution of the
// DHDL program is replayed into a timed activity graph whose dependency
// edges implement the paper's distributed control protocols (Section 3.5):
// sequential token barriers, coarse-grained pipelining with N-buffered
// memories (credits), and streaming (fill-offset) edges. Compute activities
// advance at one vector per cycle through pipelines sized by the compiler;
// transfer activities issue bursts into the DDR3 model and contend for
// bandwidth with every concurrently running transfer.
package sim

import (
	"plasticine/internal/dhdl"
)

type actKind int

const (
	actCompute actKind = iota
	actTransfer
	actBarrier
)

// depKind selects which time of the upstream activity gates the dependent.
type depKind int

const (
	// endToStart: downstream starts after upstream fully completes
	// (token passing).
	endToStart depKind = iota
	// fillToStart: downstream starts once the upstream pipeline produces
	// its first results (streaming through FIFOs).
	fillToStart
)

type dep struct {
	on   *activity
	kind depKind
	// war marks a write-after-read edge (N-buffer credit: the writer waits
	// for readers to drain the buffer version it reuses). The observability
	// layer attributes stalls behind such edges to output backpressure.
	war bool
}

// activity is one leaf-controller execution (or a sequencing barrier) on
// the simulated timeline.
type activity struct {
	id   int
	kind actKind
	leaf *dhdl.Controller // nil for barriers

	// unit is the physical-unit index this activity executes on (the
	// builder's unit table); -1 for barriers, which occupy no hardware.
	unit int

	// Compute timing.
	dur  int64 // cycles from start to completion (firings + drain)
	fill int64 // cycles from start to first output (pipeline depth)

	// Transfer work: nBursts bursts, in issue order, as runs (see
	// burstRun). list holds the listed runs' addresses.
	runs    []burstRun
	list    []uint64
	nBursts int
	write   bool

	deps       []dep
	dependents []*activity
	nDepsLeft  int

	start, end int64
	resolved   bool

	// Observability counters, copied from the running transfer at retire
	// time: cycles the AG actually issued or landed bursts, and the
	// outstanding-burst FIFO's occupancy peak.
	busy    int64
	hiWater int32
}

func (a *activity) addDep(on *activity, k depKind) { a.addDepTagged(on, k, false) }

// addDepWAR records a write-after-read (N-buffer credit) dependency.
func (a *activity) addDepWAR(on *activity) { a.addDepTagged(on, endToStart, true) }

func (a *activity) addDepTagged(on *activity, k depKind, war bool) {
	if on == nil || on == a {
		return
	}
	// Duplicate edges are harmless but wasteful; cheap dedup on the last
	// few entries catches the common repeats.
	for i := len(a.deps) - 1; i >= 0 && i >= len(a.deps)-4; i-- {
		if a.deps[i].on == on && a.deps[i].kind == k {
			return
		}
	}
	a.deps = append(a.deps, dep{on, k, war})
	if !on.resolved {
		a.nDepsLeft++
		on.dependents = append(on.dependents, a)
	}
}

// gateTime is the earliest start this dependency permits.
func (d dep) gateTime() int64 {
	if d.kind == fillToStart {
		t := d.on.start + d.on.fill
		if t > d.on.end {
			t = d.on.end
		}
		return t
	}
	return d.on.end
}

// burstRun is a stretch of a transfer's bursts, burst-aligned byte
// addresses. A dense run is rows rows of perRow consecutive bursts, the
// first row's first burst at addr and each row's stride bytes after the
// one before; the builder extends it while each merged row of a tiled
// transfer continues the stride. A listed run (perRow 0) is rows bursts
// whose addresses are the activity's list from index addr on: a sparse
// transfer's coalesced bursts.
type burstRun struct {
	addr   uint64
	stride int64
	perRow int32
	rows   int32
}

// len returns the run's burst count.
func (r *burstRun) len() int {
	if r.perRow == 0 {
		return int(r.rows)
	}
	return int(r.perRow) * int(r.rows)
}

// at returns the address of the run's burst at column col of row row (a
// listed run's row-th burst, col 0).
func (r *burstRun) at(list []uint64, row, col int) uint64 {
	if r.perRow == 0 {
		return list[int(r.addr)+row]
	}
	return r.addr + uint64(int64(row)*r.stride) + uint64(col)*burstBytes
}

// addRow appends a row of n consecutive bursts from first. The row extends
// the last run when that is a dense run of n-burst rows and first is one
// stride past its last row; a run's second row sets its stride.
func (a *activity) addRow(first uint64, n int) {
	a.nBursts += n
	if k := len(a.runs); k > 0 {
		if r := &a.runs[k-1]; int(r.perRow) == n {
			switch {
			case r.rows == 1:
				r.stride, r.rows = int64(first-r.addr), 2
				return
			case first == r.addr+uint64(int64(r.rows)*r.stride):
				r.rows++
				return
			}
		}
	}
	a.runs = append(a.runs, burstRun{addr: first, perRow: int32(n), rows: 1})
}

// addListed appends the n bursts at the end of a.list, from index start on,
// extending the last run when it is listed: listed runs take the list in
// order, so the last one ends where these begin.
func (a *activity) addListed(start, n int) {
	if n == 0 {
		return
	}
	a.nBursts += n
	if k := len(a.runs); k > 0 && a.runs[k-1].perRow == 0 {
		a.runs[k-1].rows += int32(n)
		return
	}
	a.runs = append(a.runs, burstRun{addr: uint64(start), rows: int32(n)})
}

// burstAt returns the address of the activity's i-th burst.
func (a *activity) burstAt(i int) uint64 {
	for k := range a.runs {
		r := &a.runs[k]
		if n := r.len(); i >= n {
			i -= n
			continue
		}
		if r.perRow == 0 {
			return r.at(a.list, i, 0)
		}
		return r.at(a.list, i/int(r.perRow), i%int(r.perRow))
	}
	panic("sim: burst index past the transfer's bursts")
}
