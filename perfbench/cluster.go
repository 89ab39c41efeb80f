package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"checkpointsim/internal/exp"
	"checkpointsim/internal/service"
)

// campaign_cluster: the seeded campaign schedule sent to an in-process
// coordinator in front of two in-process sweepd workers over loopback
// HTTP. One op is one scenario point POSTed twice: the first request
// computes it, the second must be a byte-identical cache hit.

// clusterRefEvents is how much simulation set-up's warm-up does: it runs
// leading schedule points locally as references, and sends each through
// the cluster, until the local runs have executed this many events.
// Budgeting events rather than points keeps set-up time nearly the same
// at every seed, though point costs vary over two orders of magnitude.
const clusterRefEvents = 500_000

// cluster is a coordinator, its workers, and the schedule being sent.
type cluster struct {
	seed     uint64
	points   []exp.Scenario // schedule prefix, extended on demand
	workers  []*service.Server
	coord    *service.Coordinator
	https    []*http.Server
	serving  sync.WaitGroup
	urls     map[string]string // shard name (w0, w1) → worker URL
	coordURL string
	client   *http.Client
}

// startCluster starts two workers and a coordinator on loopback ports.
// Every engine run is serial: one job at a time per worker, one sweep
// point at a time per job.
func startCluster(seed uint64) (*cluster, error) {
	c := &cluster{seed: seed, urls: map[string]string{},
		client: &http.Client{Timeout: time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: 4}}}
	var workerURLs []string
	for i := 0; i < 2; i++ {
		srv := service.New(service.Config{Workers: 1, JobsPerRun: 1, Version: "perfbench"})
		c.workers = append(c.workers, srv)
		u, err := c.serve(srv.Handler())
		if err != nil {
			c.close()
			return nil, err
		}
		workerURLs = append(workerURLs, u)
		c.urls["w"+strconv.Itoa(i)] = u
	}
	coord, err := service.NewCoordinator(service.CoordinatorConfig{Workers: workerURLs,
		Version: "perfbench", Client: c.client})
	if err != nil {
		c.close()
		return nil, err
	}
	c.coord = coord
	if c.coordURL, err = c.serve(coord.Handler()); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// serve starts an HTTP server for h on a loopback port and returns its URL.
func (c *cluster) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	c.https = append(c.https, hs)
	c.serving.Add(1)
	go func() {
		defer c.serving.Done()
		hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops every server and waits for their goroutines.
func (c *cluster) close() {
	if c.coord != nil {
		c.coord.Close()
	}
	for _, hs := range c.https {
		hs.Close()
	}
	c.serving.Wait()
	for _, w := range c.workers {
		w.Close()
	}
	c.client.CloseIdleConnections()
}

// point returns schedule point i. The schedule is prefix-stable, so
// doubling the generated prefix never changes earlier points.
func (c *cluster) point(i int) (exp.Scenario, error) {
	if i >= len(c.points) {
		n := max(2*len(c.points), i+1, 64)
		pts, err := exp.DefaultCampaignSpace().Schedule(c.seed, n)
		if err != nil {
			return exp.Scenario{}, err
		}
		c.points = pts
	}
	return c.points[i], nil
}

// reply is one /api/v1/run response.
type reply struct {
	code   int
	source string // X-Sweepd-Source
	worker string // X-Sweepd-Worker (set by the coordinator)
	body   []byte
}

// post sends one scenario to base's /api/v1/run.
func (c *cluster) post(base string, sc exp.Scenario) (reply, error) {
	req, err := json.Marshal(service.SweepRequest{Scenario: &sc})
	if err != nil {
		return reply{}, err
	}
	resp, err := c.client.Post(base+"/api/v1/run", "application/json", bytes.NewReader(req))
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	return reply{code: resp.StatusCode, source: resp.Header.Get("X-Sweepd-Source"),
		worker: resp.Header.Get("X-Sweepd-Worker"), body: body}, nil
}

// simEvents is the engine events the workers have executed.
func (c *cluster) simEvents() int64 {
	var n int64
	for _, w := range c.workers {
		n += w.SimEvents()
	}
	return n
}

// checkPair checks a point's two replies: computed, then a hit with the
// same bytes, and, when ref is non-nil, the bytes of a local run.
func checkPair(sc exp.Scenario, cold, hit reply, ref []byte) error {
	for _, r := range []struct {
		name, src string
		rep       reply
	}{{"first", "computed", cold}, {"second", "hit", hit}} {
		if r.rep.code != http.StatusOK {
			return fmt.Errorf("campaign_cluster: %s: %s request: status %d: %s",
				sc.ID(), r.name, r.rep.code, strings.TrimSpace(string(r.rep.body)))
		}
		if r.rep.source != r.src {
			return fmt.Errorf("campaign_cluster: %s: %s request: source %q, want %q", sc.ID(), r.name, r.rep.source, r.src)
		}
	}
	if !bytes.Equal(cold.body, hit.body) {
		return fmt.Errorf("campaign_cluster: %s: hit body differs from computed body", sc.ID())
	}
	if ref != nil && !bytes.Equal(cold.body, ref) {
		return fmt.Errorf("campaign_cluster: %s: served body differs from a local run", sc.ID())
	}
	return nil
}

// campaignCluster is the campaign_cluster instance: op i sends schedule
// point warm+i, after the points set-up used.
type campaignCluster struct {
	*cluster
	warm int
}

func newCampaignCluster(seed uint64) (instance, error) {
	c, err := startCluster(seed)
	if err != nil {
		return nil, err
	}
	// Warm-up: the leading points, each checked against a local run.
	var events int64
	i := 0
	for ; events < clusterRefEvents; i++ {
		sc, err := c.point(i)
		if err == nil {
			err = c.localCheck(sc, &events)
		}
		if err != nil {
			c.close()
			return nil, fmt.Errorf("warm-up point %d: %w", i, err)
		}
	}
	return campaignCluster{cluster: c, warm: i}, nil
}

// localCheck runs sc in process, adding its events to *events, then
// through the cluster twice, and checks all three agree.
func (c *cluster) localCheck(sc exp.Scenario, events *int64) error {
	o := exp.DefaultOptions()
	o.Events = events
	tables, err := sc.Run(o)
	if err != nil {
		return err
	}
	ref, err := service.EncodeScenarioResult(sc, tables)
	if err != nil {
		return err
	}
	cold, err := c.post(c.coordURL, sc)
	if err != nil {
		return err
	}
	hit, err := c.post(c.coordURL, sc)
	if err != nil {
		return err
	}
	return checkPair(sc, cold, hit, ref)
}

func (c campaignCluster) op(i int, tr *tracer) (sample, error) {
	sc, err := c.point(c.warm + i)
	if err != nil {
		return sample{}, err
	}
	ev0 := c.simEvents()
	root := tr.begin("campaign_cluster.op", -1)
	t0 := time.Now()
	sp := tr.begin("http.cold", root)
	cold, err := c.post(c.coordURL, sc)
	tr.end(sp)
	if err != nil {
		tr.end(root)
		return sample{}, err
	}
	t1 := time.Now()
	sp = tr.begin("http.hit", root)
	hit, err := c.post(c.coordURL, sc)
	tr.end(sp)
	t2 := time.Now()
	tr.end(root)
	if err != nil {
		return sample{}, err
	}
	if err := checkPair(sc, cold, hit, nil); err != nil {
		return sample{}, err
	}
	return sample{dur: t2.Sub(t0), hit: t2.Sub(t1), events: c.simEvents() - ev0}, nil
}

// coordCounter scrapes one counter from the coordinator's /metrics.
func (c *cluster) coordCounter(name string) (float64, error) {
	resp, err := c.client.Get(c.coordURL + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			return strconv.ParseFloat(v, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("coordinator /metrics has no " + name)
}
