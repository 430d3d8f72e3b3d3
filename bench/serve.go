package bench

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"plasticine/internal/core"
	"plasticine/internal/serve"
	"plasticine/internal/workloads"
)

// endpoints are the /v1 endpoints serve-mix sends requests to.
var endpoints = []string{"run", "explain", "compile", "profile"}

// serveBenches are the benchmarks explain, compile and profile requests
// name: the sparse set plus two small ML kernels.
var serveBenches = []string{"InnerProduct", "TPCHQ6", "SMDV", "PageRank", "BFS", "LogReg", "SGD"}

// request is one HTTP request of the serve-mix stream.
type request struct{ endpoint, bench string }

// serveBlock is one serve-mix pass: 70 requests in the service mix, 50%
// /v1/run, 20% /v1/explain, 20% /v1/compile and 10% /v1/profile, in seeded
// order. The 35 runs name Table 4 benchmarks drawn uniformly by the seed
// (cache hits once primed); each of serveBenches is explained twice,
// compiled twice and profiled once. The block holds the shares exactly, so
// every pass is the same amount of work and the seed moves only the order
// and the run targets.
func serveBlock(rng *rand.Rand) []request {
	all := workloads.All()
	var reqs []request
	for i := 0; i < 5*len(serveBenches); i++ {
		reqs = append(reqs, request{"run", all[rng.IntN(len(all))].Name()})
	}
	for _, b := range serveBenches {
		reqs = append(reqs, request{"explain", b}, request{"explain", b},
			request{"compile", b}, request{"compile", b}, request{"profile", b})
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs
}

// serveClients is the closed loop's width: one keep-alive connection per
// tenant, as many as the machine has cores.
const serveClients = 2

// serveInstance is an in-process serve.Server on a loopback listener,
// driven by serveClients tenants that each wait for a reply before sending
// their next request.
type serveInstance struct {
	sess    *core.Session
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	base    string
	clients [serveClients]*http.Client
}

func openServe(int64) (instance, error) {
	sess := core.NewSession(core.WithWorkers(1))
	srv, err := serve.New(serve.Config{
		Session:     sess,
		QueueDepth:  64,
		Concurrency: serveClients,
		// A quota no closed loop of this width can reach: the mix measures
		// serving, not throttling.
		TenantRate:  1e9,
		TenantBurst: 1e9,
		Logf:        func(string, ...any) {},
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown()
		return nil, err
	}
	s := &serveInstance{sess: sess, srv: srv, hs: &http.Server{Handler: srv},
		served: make(chan error, 1), base: "http://" + ln.Addr().String()}
	go func() { s.served <- s.hs.Serve(ln) }()
	for i := range s.clients {
		s.clients[i] = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	}
	resp, err := s.clients[0].Get(s.base + "/readyz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("/readyz: HTTP %d", resp.StatusCode)
		}
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *serveInstance) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		s.hs.Close()
	}
	<-s.served
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	s.srv.Shutdown()
}

func (s *serveInstance) pass(p *pass) error {
	if p.idx == 0 {
		// Prime the cache: every later /v1/run is a hit.
		for _, b := range workloads.All() {
			r := request{"run", b.Name()}
			p.op("serve.run", "run "+r.bench, func(*op) error { return s.do(p, 0, r) })
		}
	}
	reqs := serveBlock(p.rng)
	p.settle()
	before := s.sess.CacheStats()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := range s.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				r := reqs[i]
				p.op("serve."+r.endpoint, r.endpoint+" "+r.bench, func(*op) error { return s.do(p, c, r) })
			}
		}(c)
	}
	wg.Wait()
	after := s.sess.CacheStats()
	p.add("exec.hits", float64(after.Hits-before.Hits))
	p.add("exec.misses", float64(after.Misses-before.Misses))
	return nil
}

// do sends one request as tenant c and checks the answer.
func (s *serveInstance) do(p *pass, c int, r request) error {
	req, err := http.NewRequest(http.MethodGet, s.base+"/v1/"+r.endpoint+"?bench="+r.bench, nil)
	if err != nil {
		return err
	}
	req.Header.Set("X-Tenant", fmt.Sprintf("tenant%d", c))
	resp, err := s.clients[c].Do(req)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		p.add("serve.shed", 1)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, body)
	}
	switch r.endpoint {
	case "run", "profile":
		var br *core.BenchResult
		if r.endpoint == "run" {
			err = json.Unmarshal(body, &br)
		} else {
			var pr struct {
				Bench *core.BenchResult `json:"bench"`
			}
			err = json.Unmarshal(body, &pr)
			br = pr.Bench
		}
		if err != nil {
			return err
		}
		if br == nil {
			return errors.New("no benchmark result in the answer")
		}
		if r.endpoint == "profile" {
			// Profiles are never cached, so their simulator time is this
			// request's own.
			p.add("sim.engine_s", br.SimWallSec)
			p.add("sim.engine_cycles", float64(br.Cycles))
		}
		id := identityOfBench(br)
		p.addIdentity(id)
		return p.chk.check(goldenKey("table7", -1, r.bench), id)
	case "compile":
		var cr struct {
			Summary string `json:"summary"`
		}
		if err := json.Unmarshal(body, &cr); err != nil {
			return err
		}
		return p.chk.check(goldenKey("serve-mix", -1, "compile/"+r.bench), Identity{Hash: hashText(cr.Summary)})
	default: // explain
		var ex struct{ Fits bool }
		if err := json.Unmarshal(body, &ex); err != nil {
			return err
		}
		if !ex.Fits {
			return errors.New("explain: benchmark does not fit the fabric")
		}
		return nil
	}
}
