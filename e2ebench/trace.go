package main

// The traced run. After the untraced HTTP phase, the same seeded
// sessions and storm are replayed inside this process over the same
// rules, master and default options, with a span around every call into
// a layer's public function. Spans stay in memory and are written out
// as JSON lines when the run ends; per-layer self time is a span's
// duration minus the part of it its child spans cover.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/fix"
	"repro/internal/master"
	"repro/internal/relation"
	"repro/internal/rule"
	"repro/internal/suggest"
	"repro/internal/wal"
	"repro/pkg/certainfix"
)

// span is one timed call. Spans of one session or update share Group;
// Parent is the enclosing span's ID (-1 for a root).
type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Group  int32  `json:"group"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// N and M count calls and their results where one span covers many
	// calls (the probes of one tuple).
	N int64 `json:"n,omitempty"`
	M int64 `json:"m,omitempty"`
}

// tracer records spans while on; while off, open and close cost one
// branch, so the same replay runs traced and untraced.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func (tr *tracer) open(name string, parent, group int32) int32 {
	if !tr.on {
		return -1
	}
	id := int32(len(tr.spans))
	tr.spans = append(tr.spans, span{Name: name, ID: id, Parent: parent, Group: group,
		Start: time.Since(tr.t0).Nanoseconds()})
	return id
}

func (tr *tracer) close(id int32) {
	if id >= 0 {
		tr.spans[id].End = time.Since(tr.t0).Nanoseconds()
	}
}

func (tr *tracer) count(id int32, n, m int64) {
	if id >= 0 {
		tr.spans[id].N += n
		tr.spans[id].M += m
	}
}

// selfTimes returns, per span name, every span's self time in ns: its
// duration minus the union of its children's intervals.
func selfTimes(spans []span) map[string][]float64 {
	children := make(map[int32][]int32)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	out := make(map[string][]float64)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return spans[kids[i]].Start < spans[kids[j]].Start })
		var covered, reach int64
		reach = s.Start
		for _, k := range kids {
			st, en := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if en > st {
				covered += en - st
				reach = en
			}
		}
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-covered))
	}
	return out
}

// durations returns, per span name, every span's duration in ns.
func durations(spans []span) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start))
	}
	return out
}

// replayer holds the in-process mirror of one workload: the System the
// library-level calls go to, and the master chains the layer-level
// calls go to — plain (as the daemons' default), authenticated (as
// -auth), and a follower applying the WAL records the storm produces.
type replayer struct {
	tr       *tracer
	sigma    *rule.Set
	in       *inputs
	sys      *certainfix.System
	graph    *rule.DepGraph
	plain    *master.Data // layer probes, plain ApplyDelta
	der      *suggest.Deriver
	auth     *master.Data // authenticated ApplyDelta, proofs
	log      *wal.Log
	follower *master.Follower
	// Tallies no span carries.
	tokenBytes, tokens int64
	walGrowth          int64
	records            int64
}

// tracedReplay runs the replay and returns the per-layer metrics.
func tracedReplay(h *harness, sp spec, in *inputs, ph *httpPhase, v *verdict, seed int64) (map[string]metric, error) {
	// The replay holds several |Dm|-sized masters at once (plain,
	// authenticated, follower, the System's own); a tighter GC target
	// keeps the process's peak memory near their sum.
	defer debug.SetGCPercent(debug.SetGCPercent(50))
	runtime.GC()
	sigma := in.ds.Sigma
	rel := in.ds.Master.Relation()
	r := &replayer{tr: &tracer{t0: time.Now()}, sigma: sigma, in: in, graph: rule.NewDepGraph(sigma)}

	// master.build_s and master.index_mb: a default build at this |Dm|.
	start := time.Now()
	built, err := master.NewForRules(rel, sigma)
	if err != nil {
		return nil, err
	}
	buildS := time.Since(start).Seconds()
	msStats := built.MemStats()
	indexMB := float64(msStats.SymbolBytes+msStats.IndexBytes+msStats.PostingBytes+msStats.BitmapBytes) / 1e6
	built.Authenticate()
	r.auth = built
	r.plain = in.ds.Master
	r.der = suggest.NewDeriver(sigma, r.plain)

	// The follower bootstraps from a checkpoint image of epoch 0, as a
	// -follow daemon does.
	var image bytes.Buffer
	if err := r.auth.SaveArena(&image, sigma); err != nil {
		return nil, err
	}
	var loadMs []float64
	var base *master.Data
	for i := 0; i < 3; i++ {
		start := time.Now()
		base, err = master.LoadArenaBytes(image.Bytes(), sigma)
		if err != nil {
			return nil, err
		}
		loadMs = append(loadMs, ms(time.Since(start)))
	}
	r.follower = master.NewFollower(base, 0)
	walDir, err := h.tempDir("trace-wal-")
	if err != nil {
		return nil, err
	}
	if r.log, err = wal.Open(walDir, wal.Options{Sync: wal.SyncAlways}); err != nil {
		return nil, err
	}
	defer r.log.Close()

	var opts []certainfix.Option
	if sp.replicated {
		opts = append(opts, certainfix.WithAuth())
	}
	if r.sys, err = certainfix.New(sigma, rel, opts...); err != nil {
		return nil, err
	}

	// Warm-up, untraced and unrecorded.
	for _, i := range in.warm[:min(len(in.warm), 32)] {
		if err := r.session(int32(i)); err != nil {
			return nil, err
		}
	}

	// Sessions alternate untraced/traced replays of the same tuple (the
	// order flips every session) so the tracing overhead is measured on
	// identical work.
	var offNs, onNs int64
	paired := func(i int) error {
		first := i%2 == 0
		for pass := 0; pass < 2; pass++ {
			r.tr.on = (pass == 0) == first
			start := time.Now()
			if err := r.session(int32(i)); err != nil {
				return err
			}
			if r.tr.on {
				onNs += time.Since(start).Nanoseconds()
			} else {
				offNs += time.Since(start).Nanoseconds()
			}
		}
		return nil
	}
	if sp.replicated {
		// Warm cycles' batches first (their sessions were warm-up), then
		// each measured cycle: the update, then its sessions.
		r.tr.on = false
		for b := 0; b < sp.warm; b++ {
			if err := r.update(b, true); err != nil {
				return nil, err
			}
		}
		for b := sp.warm; b < len(in.storm); b++ {
			r.tr.on = true
			if err := r.update(b, true); err != nil {
				return nil, err
			}
			lo := (b - sp.warm) * sp.perCycle
			if lo >= replayCap {
				continue
			}
			for _, i := range in.measured[lo : lo+sp.perCycle] {
				if err := paired(i); err != nil {
					return nil, err
				}
			}
		}
	} else {
		for _, i := range in.measured[:min(len(in.measured), replayCap)] {
			if err := paired(i); err != nil {
				return nil, err
			}
		}
		r.tr.on = true
		for b := range in.storm {
			if err := r.update(b, false); err != nil {
				return nil, err
			}
		}
	}

	// The replicas of the replay must agree with each other and with the
	// storm-derived master.
	want, err := expectedMaster(rel, sigma, in.storm)
	if err != nil {
		return nil, err
	}
	for name, dm := range map[string]*master.Data{"replay leader": r.auth, "replay follower": r.follower.Current()} {
		root, _ := dm.AuthRoot()
		v.add(checkFinalMaster(name, want, masterState{Size: dm.Len(), Epoch: dm.Epoch(), Root: root.String()}))
	}

	// master.checkpoint_ms: SaveArenaFile of the head, as a durable
	// leader checkpoints every 256 deltas.
	var ckptMs []float64
	for i := 0; i < 3; i++ {
		path := filepath.Join(walDir, fmt.Sprintf("checkpoint-%d.arena", i))
		start := time.Now()
		if err := r.auth.SaveArenaFile(path, sigma); err != nil {
			return nil, err
		}
		ckptMs = append(ckptMs, ms(time.Since(start)))
		if err := os.Remove(path); err != nil {
			return nil, err
		}
	}

	spans := r.tr.spans
	if err := writeSpans(h.root, sp.name, seed, spans); err != nil {
		return nil, err
	}
	self := selfTimes(spans)
	dur := durations(spans)
	// A layer's figure is its mean self time per call: mean × calls is
	// the layer's share of the work, which a median hides when a few
	// calls (multi-match probes at large |Dm|) cost most of it.
	us := func(name string) float64 { return mean(self[name]) / 1e3 }
	msOf := func(name string) float64 { return mean(self[name]) / 1e6 }

	// HTTP self time: each route's client-side median minus the median
	// library time of the same call, weighted by the route's requests.
	var selfUs, reqs float64
	for _, rt := range []struct {
		op  int
		lib string
	}{{opBegin, "lib.begin"}, {opAnswer, "lib.answer"}, {opResult, "lib.result"}} {
		n := float64(len(ph.ops[rt.op].lat))
		selfUs += n * (median(ph.ops[rt.op].lat)*1e3 - median(dur[rt.lib])/1e3)
		reqs += n
	}

	var probeNs, probes, matches float64
	for _, s := range spans {
		if s.Name == "master.probes" {
			probeNs += float64(s.End - s.Start)
			probes += float64(s.N)
			matches += float64(s.M)
		}
	}
	var reqN, reqB, resB float64
	for _, o := range ph.outcomes {
		reqN += float64(o.requests)
		reqB += float64(o.reqBytes)
		resB += float64(o.resBytes)
	}
	n := float64(len(ph.outcomes))

	return map[string]metric{
		"certainfixd.begin_p50_ms":               {median(ph.ops[opBegin].lat), "ms"},
		"certainfixd.answer_p50_ms":              {median(ph.ops[opAnswer].lat), "ms"},
		"certainfixd.result_p50_ms":              {median(ph.ops[opResult].lat), "ms"},
		"certainfixd.update_master_p50_ms":       {median(ph.ops[opUpdate].lat), "ms"},
		"certainfixd.self_us_per_request":        {selfUs / reqs, "us"},
		"certainfixd.requests_per_session":       {reqN / n, "count"},
		"certainfixd.request_bytes_per_session":  {reqB / n, "bytes"},
		"certainfixd.response_bytes_per_session": {resB / n, "bytes"},
		"certainfix.token_bytes":                 {float64(r.tokenBytes) / float64(r.tokens), "bytes"},
		"certainfix.marshal_us":                  {us("certainfix.marshal"), "us"},
		"certainfix.resume_us":                   {us("certainfix.resume"), "us"},
		"certainfix.begin_us":                    {us("certainfix.begin"), "us"},
		"certainfix.provide_us":                  {us("certainfix.provide"), "us"},
		"certainfix.result_us":                   {us("certainfix.result"), "us"},
		"suggest.suggest_us":                     {us("suggest.suggest"), "us"},
		"analysis.consistent_row_us":             {us("analysis.consistent_row"), "us"},
		"fix.transfix_us":                        {us("fix.transfix"), "us"},
		"master.probe_ns":                        {probeNs / probes, "ns"},
		"master.matches_per_probe":               {matches / probes, "count"},
		"master.build_s":                         {buildS, "s"},
		"master.index_mb":                        {indexMB, "MB"},
		"master.apply_delta_ms":                  {msOf("master.apply_delta"), "ms"},
		"master.checkpoint_ms":                   {median(ckptMs), "ms"},
		"master.arena_load_ms":                   {median(loadMs), "ms"},
		"master.follower_apply_ms":               {msOf("master.follower_apply"), "ms"},
		"authtree.root_update_ms":                {msOf("master.apply_delta") - msOf("master.apply_delta_plain"), "ms"},
		"authtree.prove_us":                      {us("authtree.prove"), "us"},
		"wal.append_us":                          {us("wal.append"), "us"},
		"wal.bytes_per_update":                   {float64(r.walGrowth) / float64(r.records), "bytes"},
		"trace.overhead_pct":                     {100 * float64(onNs-offNs) / float64(offNs), "%"},
	}, nil
}

// replayCap bounds how many measured sessions a traced run replays
// (each twice: untraced and traced); update-replicated still applies
// every batch of its storm.
const replayCap = 600

// session replays one session the way certainfixd serves it — begin
// (Begin, MarshalBinary), one answer per round (Resume, Provide,
// MarshalBinary), result (Resume, Result) — and, beside it, calls the
// layers under Provide with the inputs Provide passes them: the
// consistency check, the TransFix cascade and the next suggestion; then
// probes every rule's premise for the fixed tuple and proves every
// witness.
func (r *replayer) session(i int32) error {
	tr := r.tr
	ctx := context.Background()
	dirty, truth := r.in.ds.Inputs[i], r.in.ds.Truths[i]
	root := tr.open("session", -1, i)
	defer tr.close(root)

	req := tr.open("lib.begin", root, i)
	s := tr.open("certainfix.begin", req, i)
	fs, err := r.sys.Begin(ctx, dirty)
	tr.close(s)
	if err != nil {
		return fmt.Errorf("replay begin %d: %w", i, err)
	}
	token, err := r.marshal(fs, req, i)
	tr.close(req)
	if err != nil {
		return err
	}

	for !fs.Done() {
		attrs := fs.Suggested()
		values := make([]relation.Value, len(attrs))
		for k, p := range attrs {
			values[k] = truth[p]
		}
		req = tr.open("lib.answer", root, i)
		if fs, err = r.resume(token, req, i); err != nil {
			return err
		}
		t0, z0 := fs.Tuple(), fs.Validated()
		s = tr.open("certainfix.provide", req, i)
		err = fs.Provide(attrs, values)
		tr.close(s)
		if err != nil {
			return fmt.Errorf("replay provide %d: %w", i, err)
		}
		token, err = r.marshal(fs, req, i)
		tr.close(req)
		if err != nil {
			return err
		}

		// The layers under that Provide, called on its inputs.
		lr := tr.open("layers.round", root, i)
		for k, p := range attrs {
			t0[p] = values[k]
			z0.Add(p)
		}
		zp := z0.Positions()
		s = tr.open("analysis.consistent_row", lr, i)
		consistent := r.der.ConsistentRow(zp, t0.Project(zp))
		tr.close(s)
		if consistent {
			var w []fix.Witness
			s = tr.open("fix.transfix", lr, i)
			_, _ = fix.TransFixTrace(r.graph, r.plain, t0, &z0, &w) // a conflict is routed to the users, as in Provide
			tr.close(s)
		}
		if !fs.Done() {
			t1, z1 := fs.Tuple(), fs.Validated()
			s = tr.open("suggest.suggest", lr, i)
			r.der.Suggest(t1, z1)
			tr.close(s)
		}
		tr.close(lr)
	}

	req = tr.open("lib.result", root, i)
	if fs, err = r.resume(token, req, i); err != nil {
		return err
	}
	s = tr.open("certainfix.result", req, i)
	res := fs.Result()
	tr.close(s)
	tr.close(req)
	if !res.Completed {
		return fmt.Errorf("replay session %d did not complete", i)
	}

	// One probe per rule premise of the fixed tuple.
	rules := r.sigma.Rules()
	s = tr.open("master.probes", root, i)
	var matches int
	for _, ru := range rules {
		matches += len(r.plain.MatchIDs(ru, res.Tuple))
	}
	tr.close(s)
	tr.count(s, int64(len(rules)), int64(matches))

	for _, w := range res.Provenance {
		s = tr.open("authtree.prove", root, i)
		_, err := r.auth.ProveTuple(w.MasterID)
		tr.close(s)
		if err != nil {
			return fmt.Errorf("replay prove %d: %w", i, err)
		}
	}
	return nil
}

func (r *replayer) marshal(fs *certainfix.FixSession, parent, group int32) ([]byte, error) {
	s := r.tr.open("certainfix.marshal", parent, group)
	token, err := fs.MarshalBinary()
	r.tr.close(s)
	if err != nil {
		return nil, err
	}
	if r.tr.on {
		r.tokenBytes += int64(len(token))
		r.tokens++
	}
	return token, nil
}

func (r *replayer) resume(token []byte, parent, group int32) (*certainfix.FixSession, error) {
	s := r.tr.open("certainfix.resume", parent, group)
	fs, err := r.sys.Resume(context.Background(), token)
	r.tr.close(s)
	if err != nil {
		return nil, fmt.Errorf("replay resume: %w", err)
	}
	return fs, nil
}

// update applies storm batch b to every chain: the System (when its
// sessions must see the update), the authenticated and plain masters,
// the WAL under fsync always, and the follower applying the record.
func (r *replayer) update(b int, toSystem bool) error {
	tr := r.tr
	g := int32(1_000_000 + b)
	batch := r.in.storm[b]
	u := tr.open("update", -1, g)
	defer tr.close(u)
	if toSystem {
		s := tr.open("certainfix.update_master", u, g)
		_, err := r.sys.UpdateMaster(batch.Adds, batch.Deletes)
		tr.close(s)
		if err != nil {
			return fmt.Errorf("replay update %d: %w", b, err)
		}
	}
	s := tr.open("master.apply_delta", u, g)
	next, err := r.auth.ApplyDelta(batch.Adds, batch.Deletes)
	tr.close(s)
	if err != nil {
		return fmt.Errorf("replay apply %d: %w", b, err)
	}
	s = tr.open("master.apply_delta_plain", u, g)
	nextPlain, err := r.plain.ApplyDelta(batch.Adds, batch.Deletes)
	tr.close(s)
	if err != nil {
		return fmt.Errorf("replay apply %d: %w", b, err)
	}
	root, _ := next.AuthRoot()
	rec := wal.Record{Epoch: next.Epoch(), Adds: batch.Adds, Deletes: batch.Deletes, Root: append([]byte(nil), root[:]...)}
	before := r.log.Stats().Bytes
	s = tr.open("wal.append", u, g)
	err = r.log.Append(rec)
	tr.close(s)
	if err != nil {
		return fmt.Errorf("replay wal append %d: %w", b, err)
	}
	if tr.on {
		r.walGrowth += r.log.Stats().Bytes - before
		r.records++
	}
	s = tr.open("master.follower_apply", u, g)
	applied, err := r.follower.ApplyRecord(rec)
	tr.close(s)
	if err != nil || !applied {
		return fmt.Errorf("replay follower apply %d: applied %v: %v", b, applied, err)
	}
	r.auth, r.plain = next, nextPlain
	r.der = suggest.NewDeriver(r.sigma, r.plain)
	return nil
}

// writeSpans writes the run's spans as JSON lines under
// .bench_build/traces in the checkout.
func writeSpans(root, workload string, seed int64, spans []span) error {
	dir := filepath.Join(root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed)))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
