package serve

// /v1/tune streams a Pareto-front auto-tuner search (internal/tune) over the
// evaluation service. A tune search is minutes of simulated candidates behind
// one request, so it rides the same committed-NDJSON machinery as /v1/sweep —
// admitted as heavy, shed past the watermark, heartbeats between events —
// plus one extra in-band event kind:
//
//	{"event":"generation", "kind":"tune", "data":{"gen":N, "front_size":N, ...}}
//
// emitted after every completed generation, and a terminal "result" event
// whose data is the plasticine-tune/v1 document (schema in EXPERIMENTS.md).
// Query parameters: mix (benchmark:weight pairs, default "InnerProduct:1"),
// budget, pop, seed, max_area, max_power, max_generations. Budget and
// population are clamped server-side: one tenant must not be able to park a
// month of simulation behind a single admitted request.

import (
	"context"
	"fmt"
	"net/http"
	"strconv"

	"plasticine/internal/tune"
)

// Server-side ceilings for tune searches. A search wanting more budget than
// this belongs on the CLI, where the operator owns the machine.
const (
	tuneMaxBudget     = 512
	tuneMaxPopulation = 128
)

// tuneSpec parses the request's query parameters into a search spec.
func tuneSpec(r *http.Request) (tune.Spec, error) {
	q := r.URL.Query()
	var spec tune.Spec

	mixRaw := q.Get("mix")
	if mixRaw == "" {
		mixRaw = "InnerProduct:1"
	}
	mix, err := tune.ParseMix(mixRaw)
	if err != nil {
		return spec, err
	}
	spec.Mix = mix

	intParam := func(name string, def int) (int, error) {
		raw := q.Get(name)
		if raw == "" {
			return def, nil
		}
		v, err := strconv.Atoi(raw)
		if err != nil {
			return 0, fmt.Errorf("bad %s %q: want an integer", name, raw)
		}
		return v, nil
	}
	floatParam := func(name string) (float64, error) {
		raw := q.Get(name)
		if raw == "" {
			return 0, nil
		}
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil || v < 0 {
			return 0, fmt.Errorf("bad %s %q: want a non-negative number", name, raw)
		}
		return v, nil
	}

	if spec.Budget, err = intParam("budget", 16); err != nil {
		return spec, err
	}
	if spec.Budget < 1 || spec.Budget > tuneMaxBudget {
		return spec, fmt.Errorf("budget %d out of range [1,%d]", spec.Budget, tuneMaxBudget)
	}
	if spec.Population, err = intParam("pop", 8); err != nil {
		return spec, err
	}
	if spec.Population < 1 || spec.Population > tuneMaxPopulation {
		return spec, fmt.Errorf("pop %d out of range [1,%d]", spec.Population, tuneMaxPopulation)
	}
	if spec.MaxGenerations, err = intParam("max_generations", 0); err != nil {
		return spec, err
	}
	if spec.MaxGenerations < 0 {
		return spec, fmt.Errorf("max_generations %d is negative", spec.MaxGenerations)
	}
	seed, err := intParam("seed", 1)
	if err != nil {
		return spec, err
	}
	spec.Seed = int64(seed)
	if spec.Constraints.MaxAreaMM2, err = floatParam("max_area"); err != nil {
		return spec, err
	}
	if spec.Constraints.MaxPowerW, err = floatParam("max_power"); err != nil {
		return spec, err
	}
	return spec, nil
}

// handleTune admits a tune search as a heavy streamed request.
func (s *Server) handleTune(w http.ResponseWriter, r *http.Request) {
	spec, err := tuneSpec(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	s.tunes.Add(1)
	defer s.tunes.Add(-1)

	// Generation events flow through a buffered channel the stream drains at
	// its own pace; the send never blocks, so a slow client drops progress
	// lines instead of stalling the search. run closes the channel before
	// returning, which streamRequest relies on to flush the tail.
	updates := make(chan sweepEvent, 64)
	run := func(ctx context.Context) (any, error) {
		defer close(updates)
		res, err := s.sess.Tune(ctx, spec, func(g tune.Generation) {
			select {
			case updates <- sweepEvent{Event: "generation", Kind: "tune", Data: g}:
			default:
			}
		})
		if err != nil {
			return nil, err
		}
		return tune.ResultDoc(spec, res)
	}
	s.streamRequest(w, r, "tune", run, updates)
}
