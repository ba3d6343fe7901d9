package main

import (
	"fmt"
	"os"
	"time"
)

// spec is one workload. The work of a run is fixed by (spec, seed,
// seconds): perSecond × seconds measured sessions (session-*) or update
// cycles (update-replicated), never by the clock, so two runs of one
// seed do identical work however fast the code is.
type spec struct {
	name       string
	masterSize int
	replicated bool
	perSecond  int // measured sessions, or cycles, per --seconds
	warm       int // warm-up sessions, or cycles, before timing
	perCycle   int // sessions per update cycle (update-replicated)
	setups     int // daemon launches per untraced run; setup_s is their median
}

var workloads = map[string]spec{
	"session-10k":       {name: "session-10k", masterSize: 10_000, perSecond: 400, warm: 200, setups: 5},
	"session-100k":      {name: "session-100k", masterSize: 100_000, perSecond: 130, warm: 200, setups: 3},
	"update-replicated": {name: "update-replicated", masterSize: 100_000, replicated: true, perSecond: 18, warm: 4, perCycle: 4, setups: 3},
}

const (
	// sessionStorm is the storm length a session workload posts after
	// its sessions; update-replicated's storm is its cycles.
	sessionStorm = 32
	// minTailSamples is how many sessions must lie beyond the reported
	// p99 for it to be a tail at all.
	minTailSamples = 10
	healthTimeout  = 180 * time.Second
	visibleTimeout = 30 * time.Second
)

// runOutput is everything main prints.
type runOutput struct {
	verdict   verdict
	attempted int
	failed    int
	metrics   map[string]metric
	report    map[string]any
}

// httpPhase is the untraced traffic of a run, as the client saw it.
type httpPhase struct {
	setup      []float64 // seconds per launch
	outcomes   []*sessionOutcome
	cpu        float64 // daemon CPU seconds over the measured phase
	rss        float64 // summed daemon VmHWM, MB
	ops        [numOps]opStats
	updates    int
	updateWall float64 // seconds spent in update-master calls
}

func runWorkload(h *harness, sp spec, seed int64, seconds int, trace bool) (*runOutput, error) {
	if err := h.build(); err != nil {
		return nil, err
	}
	units := sp.perSecond * seconds
	warmSessions, measuredSessions, stormBatches := sp.warm, units, sessionStorm
	if sp.replicated {
		warmSessions, measuredSessions, stormBatches = sp.warm*sp.perCycle, units*sp.perCycle, sp.warm+units
	}
	genStart := time.Now()
	in, err := generate(h.tmp, seed, sp.masterSize, warmSessions, measuredSessions, stormBatches)
	if err != nil {
		return nil, fmt.Errorf("generate inputs: %w", err)
	}
	fmt.Fprintf(os.Stderr, "e2ebench: %s seed %d: inputs %s generated in %.1fs (|Dm| %d, %d+%d sessions, %d storm batches)\n",
		sp.name, seed, in.digest, time.Since(genStart).Seconds(), sp.masterSize, warmSessions, measuredSessions, len(in.storm))

	out := &runOutput{}
	var ph *httpPhase
	if sp.replicated {
		ph, err = runReplicated(h, sp, in, trace, &out.verdict)
	} else {
		ph, err = runSessions(h, sp, in, trace, &out.verdict)
	}
	if err != nil {
		return nil, err
	}

	ops := map[string]map[string]int{}
	for i, st := range ph.ops {
		out.attempted += st.attempted
		out.failed += st.failed
		ops[opNames[i]] = map[string]int{"attempted": st.attempted, "failed": st.failed}
	}
	lat := make([]float64, len(ph.outcomes))
	for i, o := range ph.outcomes {
		lat[i] = o.latency
	}
	out.report = map[string]any{
		"workload":   sp.name,
		"seed":       seed,
		"seconds":    seconds,
		"inputs":     in.digest,
		"master":     sp.masterSize,
		"sessions":   len(ph.outcomes),
		"operations": ops,
		"trace":      trace,
	}
	// Printed, not gated: see README.
	if len(lat) >= 100*minTailSamples {
		out.report["session_p99_ms"] = quantile(lat, 0.99)
	}
	upd := ph.ops[opUpdate].lat
	updates := map[string]float64{
		"update_p50_ms": median(upd),
		"update_p99_ms": quantile(upd, 0.99),
		"update_max_ms": quantile(upd, 1),
	}
	if ph.updateWall > 0 { // a storm that failed at once timed nothing
		updates["updates_per_s"] = float64(ph.updates) / ph.updateWall
	}
	if sp.replicated {
		updates["replica_visible_p50_ms"] = median(ph.ops[opVisible].lat)
	}
	out.report["updates"] = updates
	if trace {
		out.metrics, err = tracedReplay(h, sp, in, ph, &out.verdict, seed)
		if err != nil {
			return nil, err
		}
		return out, nil
	}
	out.metrics = endToEnd(ph)
	return out, nil
}

// endToEnd turns the untraced phase into the end-to-end metrics.
func endToEnd(ph *httpPhase) map[string]metric {
	lat := make([]float64, len(ph.outcomes))
	var rounds, asserted, wire, sessionMS float64
	for i, o := range ph.outcomes {
		lat[i] = o.latency
		sessionMS += o.latency
		rounds += float64(o.res.Rounds)
		asserted += float64(o.res.UserValidated.Len())
		wire += float64(o.reqBytes + o.resBytes)
	}
	n := float64(len(ph.outcomes))
	return map[string]metric{
		"setup_s": {median(ph.setup), "s"},
		// Completed sessions per second of the time spent in them: with
		// one closed-loop client, the reciprocal of the mean latency.
		"sessions_per_s":             {n / sessionMS * 1e3, "1/s"},
		"session_p50_ms":             {median(lat), "ms"},
		"rounds_per_session":         {rounds / n, "count"},
		"asserted_cells_per_session": {asserted / n, "count"},
		"wire_bytes_per_session":     {wire / n, "bytes"},
		"server_cpu_s":               {ph.cpu, "s"},
		"server_rss_mb":              {ph.rss, "MB"},
	}
}

// runSessions is session-10k / session-100k: one certainfixd built from
// CSV with default flags, and one closed-loop client that runs whole
// sessions one after another, then posts the storm to the same daemon.
func runSessions(h *harness, sp spec, in *inputs, trace bool, v *verdict) (*httpPhase, error) {
	ph := &httpPhase{}
	repeats := sp.setups
	if trace {
		repeats = 1
	}
	var d *daemon
	for i := 0; i < repeats; i++ {
		if d != nil {
			h.stop(d)
		}
		start := time.Now()
		var err error
		d, err = h.start(fmt.Sprintf("certainfixd-%d", i), "-rules", in.rulesPath, "-master", in.masterPath)
		if err != nil {
			return nil, err
		}
		if err := d.waitHealthy(healthTimeout); err != nil {
			return nil, err
		}
		ph.setup = append(ph.setup, time.Since(start).Seconds())
	}
	defer h.stop(d)

	c := newClient()
	defer c.close()
	unpin, err := pinOneCPU(d)
	if err != nil {
		return nil, err
	}
	defer unpin()
	arity := in.ds.Sigma.Schema().Arity()
	check := func(o *sessionOutcome) {
		if err := checkSession(&o.res, in.ds.Truths[o.input], arity); err != nil {
			v.add(fmt.Errorf("input %d: %w", o.input, err))
		}
	}

	warm := runSequential(c, d.url, in, in.warm)
	for i := range c.ops {
		if c.ops[i].failed > 0 {
			return nil, fmt.Errorf("warm-up: %d %s operations failed", c.ops[i].failed, opNames[i])
		}
		c.ops[i] = opStats{}
	}
	for _, o := range warm {
		check(o)
	}

	cpu0, err := cpuOf(d)
	if err != nil {
		return nil, err
	}
	ph.outcomes = runSequential(c, d.url, in, in.measured)
	cpu1, err := cpuOf(d)
	if err != nil {
		return nil, err
	}
	ph.cpu = cpu1 - cpu0
	if ph.rss, err = rssOf(d); err != nil {
		return nil, err
	}
	for _, o := range ph.outcomes {
		check(o)
	}

	if err := postStorm(c, d.url, in, ph, v); err != nil {
		return nil, err
	}
	mergeOps(&ph.ops, c)
	return ph, nil
}

// postStorm sends the whole storm to one unreplicated daemon and checks
// the acknowledged epochs and final size against the derived master.
func postStorm(c *client, url string, in *inputs, ph *httpPhase, v *verdict) error {
	want, err := applyStorm(in.ds.Master.Relation(), in.storm)
	if err != nil {
		return err
	}
	var size int
	start := time.Now()
	for i, b := range in.storm {
		epoch, n, err := c.update(url, b.Adds, b.Deletes)
		if err != nil {
			v.add(fmt.Errorf("storm stopped at batch %d: %w", i, err))
			return nil
		}
		if epoch != uint64(i+1) {
			v.add(fmt.Errorf("batch %d acknowledged as epoch %d", i, epoch))
		}
		size = n
		ph.updates++
	}
	ph.updateWall = time.Since(start).Seconds()
	if size != want.Len() {
		v.add(fmt.Errorf("final master size %d, derived %d", size, want.Len()))
	}
	return nil
}

// runSequential runs the sessions idx one after another and returns the
// completed ones in idx order. Failed sessions are counted in the
// client's operation stats and left out.
func runSequential(c *client, url string, in *inputs, idx []int) []*sessionOutcome {
	var out []*sessionOutcome
	for _, i := range idx {
		o, err := c.session(url, i, in.ds.Inputs[i], in.ds.Truths[i])
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: session %d: %v\n", i, err)
			continue
		}
		out = append(out, o)
	}
	return out
}

func mergeOps(dst *[numOps]opStats, c *client) {
	for i := range c.ops {
		dst[i].attempted += c.ops[i].attempted
		dst[i].failed += c.ops[i].failed
		dst[i].lat = append(dst[i].lat, c.ops[i].lat...)
	}
}

// runReplicated is update-replicated: a leader with a durable,
// authenticated lineage and an authenticated follower. One client runs
// fixed cycles: post one storm batch to the leader, wait until the
// follower serves its epoch, check both publish the same (epoch, root),
// then run sp.perCycle sessions on the follower and verify each result
// offline against the root it pinned.
func runReplicated(h *harness, sp spec, in *inputs, trace bool, v *verdict) (*httpPhase, error) {
	ph := &httpPhase{}
	repeats := sp.setups
	if trace {
		repeats = 1
	}
	var leader, follower *daemon
	var walDir string
	for i := 0; i < repeats; i++ {
		if leader != nil {
			// Each launch starts from a fresh WAL directory.
			h.stop(follower)
			h.stop(leader)
			if err := os.RemoveAll(walDir); err != nil {
				return nil, err
			}
		}
		var err error
		walDir, err = h.tempDir("wal-")
		if err != nil {
			return nil, err
		}
		start := time.Now()
		leader, err = h.start(fmt.Sprintf("leader-%d", i), "-rules", in.rulesPath, "-master", in.masterPath,
			"-wal-dir", walDir, "-fsync", "always", "-auth")
		if err != nil {
			return nil, err
		}
		if err := leader.waitHealthy(healthTimeout); err != nil {
			return nil, err
		}
		follower, err = h.start(fmt.Sprintf("follower-%d", i), "-rules", in.rulesPath, "-follow", leader.url, "-auth")
		if err != nil {
			return nil, err
		}
		if err := follower.waitHealthy(healthTimeout); err != nil {
			return nil, err
		}
		ph.setup = append(ph.setup, time.Since(start).Seconds())
	}
	defer h.stop(leader)
	defer h.stop(follower)

	c := newClient()
	defer c.close()
	unpin, err := pinOneCPU(leader, follower)
	if err != nil {
		return nil, err
	}
	defer unpin()
	arity := in.ds.Sigma.Schema().Arity()
	sessions := append(append([]int(nil), in.warm...), in.measured...)
	applied := 0
	cycle := func(b int) bool {
		batch := in.storm[b]
		t0 := time.Now()
		epoch, _, err := c.update(leader.url, batch.Adds, batch.Deletes)
		ph.updateWall += time.Since(t0).Seconds()
		if err != nil {
			v.add(fmt.Errorf("storm stopped at batch %d: %w", b, err))
			return false
		}
		applied++
		ph.updates++
		fr, err := c.waitEpoch(follower.url, epoch, visibleTimeout)
		if err != nil {
			v.add(err)
			return false
		}
		var lr rootReply
		if err := c.getJSON(leader.url+"/v1/root", &lr); err != nil {
			v.add(err)
			return false
		}
		v.add(checkReplica(epoch, lr, fr))
		for _, i := range sessions[b*sp.perCycle : (b+1)*sp.perCycle] {
			o, err := c.session(follower.url, i, in.ds.Inputs[i], in.ds.Truths[i])
			if err != nil {
				fmt.Fprintf(os.Stderr, "e2ebench: session %d: %v\n", i, err)
				continue
			}
			if o.epoch != epoch || o.root != lr.Root {
				v.add(fmt.Errorf("input %d pinned (%d, %s), cycle published (%d, %s)", i, o.epoch, o.root, epoch, lr.Root))
			}
			if err := checkSession(&o.res, nil, arity); err != nil {
				v.add(fmt.Errorf("input %d: %w", i, err))
			}
			if err := checkProvenance(in.ds.Sigma, &o.res, o.root); err != nil {
				v.add(fmt.Errorf("input %d: %w", i, err))
			}
			if b >= sp.warm {
				ph.outcomes = append(ph.outcomes, o)
			}
		}
		return true
	}

	for b := 0; b < sp.warm; b++ {
		if !cycle(b) {
			return nil, fmt.Errorf("warm-up cycle %d failed: %v", b, v.errs)
		}
	}
	for i := range c.ops {
		if c.ops[i].failed > 0 {
			return nil, fmt.Errorf("warm-up: %d %s operations failed", c.ops[i].failed, opNames[i])
		}
		c.ops[i] = opStats{}
	}
	ph.updates, ph.updateWall = 0, 0

	cpu0, err := cpuOf(leader, follower)
	if err != nil {
		return nil, err
	}
	for b := sp.warm; b < len(in.storm); b++ {
		if !cycle(b) {
			break
		}
	}
	cpu1, err := cpuOf(leader, follower)
	if err != nil {
		return nil, err
	}
	ph.cpu = cpu1 - cpu0
	unpin()
	if ph.rss, err = rssOf(leader, follower); err != nil {
		return nil, err
	}
	mergeOps(&ph.ops, c)

	// Final state: both nodes against a fresh authenticated build over
	// the master this benchmark derives from the storm itself.
	want, err := expectedMaster(in.ds.Master.Relation(), in.ds.Sigma, in.storm[:applied])
	if err != nil {
		return nil, err
	}
	for _, d := range []*daemon{leader, follower} {
		got, err := nodeState(c, d.url)
		if err != nil {
			return nil, err
		}
		v.add(checkFinalMaster(d.name, want, got))
	}
	return ph, nil
}

// nodeState reads a node's final master size (/healthz) and
// (epoch, root) (/v1/root).
func nodeState(c *client, url string) (masterState, error) {
	var hz struct {
		Epoch      uint64 `json:"epoch"`
		MasterSize int    `json:"masterSize"`
	}
	if err := c.getJSON(url+"/healthz", &hz); err != nil {
		return masterState{}, err
	}
	var rr rootReply
	if err := c.getJSON(url+"/v1/root", &rr); err != nil {
		return masterState{}, err
	}
	if rr.Epoch != hz.Epoch {
		return masterState{}, fmt.Errorf("%s moved from epoch %d to %d while idle", url, hz.Epoch, rr.Epoch)
	}
	return masterState{Size: hz.MasterSize, Epoch: rr.Epoch, Root: rr.Root}, nil
}
