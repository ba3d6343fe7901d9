package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/relation"
	"repro/pkg/certainfix"
)

// Operation types, each with its own attempted/failed count.
const (
	opBegin = iota
	opAnswer
	opResult
	opUpdate
	opVisible // waiting until the follower serves an acknowledged epoch
	numOps
)

var opNames = [numOps]string{"begin", "answer", "result", "update-master", "follower-visible"}

// opStats counts one operation type: attempts, failures, and the
// latency of each success in ms.
type opStats struct {
	attempted, failed int
	lat               []float64
}

// client is one closed-loop load generator: it sends its next request
// only after the previous reply. Its transport holds at most one
// connection per daemon. A client is used by one goroutine.
type client struct {
	hc  *http.Client
	ops [numOps]opStats
}

func newClient() *client {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// exchange sends one request and returns the 200 reply's body. Every
// call counts as an attempt of op; transport errors and non-200 replies
// count as failures and are never retried: a 409 epoch_evicted is
// reported, not rebased.
func (c *client) exchange(op int, method, url string, payload []byte) ([]byte, error) {
	st := &c.ops[op]
	st.attempted++
	start := time.Now()
	req, err := http.NewRequest(method, url, bytes.NewReader(payload))
	if err != nil {
		st.failed++
		return nil, err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		st.failed++
		return nil, fmt.Errorf("%s: %w", opNames[op], err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		st.failed++
		return nil, fmt.Errorf("%s: read reply: %w", opNames[op], err)
	}
	if resp.StatusCode != http.StatusOK {
		st.failed++
		return nil, fmt.Errorf("%s: HTTP %d: %s", opNames[op], resp.StatusCode, bytes.TrimSpace(body))
	}
	st.lat = append(st.lat, ms(time.Since(start)))
	return body, nil
}

// sessionReply is the reply of /v1/begin and /v1/answer.
type sessionReply struct {
	Token     json.RawMessage `json:"token"`
	Suggested []int           `json:"suggested"`
	Rounds    int             `json:"rounds"`
	Done      bool            `json:"done"`
	Completed bool            `json:"completed"`
	Epoch     uint64          `json:"epoch"`
	Root      string          `json:"root"`
}

// sessionOutcome is one completed session as the client saw it.
type sessionOutcome struct {
	input    int // index into the dataset's inputs
	res      certainfix.Result
	epoch    uint64 // pinned at begin
	root     string // pinned at begin (empty without -auth)
	latency  float64
	requests int
	reqBytes int
	resBytes int
}

// session runs one whole fix session against base: begin, one answer
// per round with the ground-truth values of the suggested attributes
// (the simulated user of §6), then result. It stops at the first failed
// request; no request is retried.
func (c *client) session(base string, input int, dirty, truth relation.Tuple) (*sessionOutcome, error) {
	out := &sessionOutcome{input: input}
	start := time.Now()
	call := func(op int, path string, payload []byte, dst any) error {
		reply, err := c.exchange(op, http.MethodPost, base+path, payload)
		if err != nil {
			return err
		}
		out.requests++
		out.reqBytes += len(payload)
		out.resBytes += len(reply)
		if err := json.Unmarshal(reply, dst); err != nil {
			return fmt.Errorf("%s: decode reply: %w", opNames[op], err)
		}
		return nil
	}

	tuple, err := json.Marshal(dirty)
	if err != nil {
		return nil, err
	}
	var rep sessionReply
	if err := call(opBegin, "/v1/begin", concat([]byte(`{"tuple":`), tuple, []byte(`}`)), &rep); err != nil {
		return nil, err
	}
	out.epoch, out.root = rep.Epoch, rep.Root
	// A session ends within arity+1 rounds by construction; the guard
	// only stops a runaway loop from hanging the run.
	for guard := 0; !rep.Done; guard++ {
		if guard > len(truth)+1 {
			return nil, fmt.Errorf("session for input %d still open after %d rounds", input, guard)
		}
		values := make([]relation.Value, len(rep.Suggested))
		for i, p := range rep.Suggested {
			if p < 0 || p >= len(truth) {
				return nil, fmt.Errorf("session for input %d: suggested position %d out of range", input, p)
			}
			values[i] = truth[p]
		}
		attrs, err := json.Marshal(rep.Suggested)
		if err != nil {
			return nil, err
		}
		vals, err := json.Marshal(values)
		if err != nil {
			return nil, err
		}
		req := concat([]byte(`{"token":`), rep.Token, []byte(`,"attrs":`), attrs, []byte(`,"values":`), vals, []byte(`}`))
		rep = sessionReply{}
		if err := call(opAnswer, "/v1/answer", req, &rep); err != nil {
			return nil, err
		}
	}
	// The reply's per-round history is not decoded: no check reads it.
	var rr struct {
		Result struct {
			Tuple         relation.Tuple
			Rounds        int
			Completed     bool
			UserValidated relation.AttrSet
			AutoFixed     relation.AttrSet
			Epoch         uint64
			Root          string
			Provenance    []certainfix.Witness
		} `json:"result"`
	}
	if err := call(opResult, "/v1/result", concat([]byte(`{"token":`), rep.Token, []byte(`}`)), &rr); err != nil {
		return nil, err
	}
	r := &rr.Result
	out.res = certainfix.Result{Tuple: r.Tuple, Rounds: r.Rounds, Completed: r.Completed,
		UserValidated: r.UserValidated, AutoFixed: r.AutoFixed, Epoch: r.Epoch, Root: r.Root, Provenance: r.Provenance}
	out.latency = ms(time.Since(start))
	return out, nil
}

// rootReply is GET /v1/root.
type rootReply struct {
	Epoch uint64 `json:"epoch"`
	Root  string `json:"root"`
}

// getJSON fetches a read-only endpoint outside operation accounting
// (epoch polls, final-state reads).
func (c *client) getJSON(url string, dst any) error {
	resp, err := c.hc.Get(url)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, dst)
}

// update posts one storm batch to the leader and returns the epoch and
// master size it acknowledged.
func (c *client) update(base string, adds []relation.Tuple, deletes []int) (uint64, int, error) {
	if adds == nil {
		adds = []relation.Tuple{}
	}
	if deletes == nil {
		deletes = []int{}
	}
	payload, err := json.Marshal(map[string]any{"adds": adds, "deletes": deletes})
	if err != nil {
		return 0, 0, err
	}
	reply, err := c.exchange(opUpdate, http.MethodPost, base+"/v1/update-master", payload)
	if err != nil {
		return 0, 0, err
	}
	var ack struct {
		Epoch      uint64 `json:"epoch"`
		MasterSize int    `json:"masterSize"`
	}
	if err := json.Unmarshal(reply, &ack); err != nil {
		return 0, 0, fmt.Errorf("update-master: decode reply: %w", err)
	}
	return ack.Epoch, ack.MasterSize, nil
}

// waitEpoch polls the follower's GET /v1/root until it reports epoch
// (counted as one follower-visible operation; a timeout fails it) and
// returns what the follower published.
func (c *client) waitEpoch(base string, epoch uint64, timeout time.Duration) (rootReply, error) {
	st := &c.ops[opVisible]
	st.attempted++
	start := time.Now()
	deadline := start.Add(timeout)
	for {
		var rr rootReply
		if err := c.getJSON(base+"/v1/root", &rr); err != nil {
			st.failed++
			return rr, fmt.Errorf("follower-visible: %w", err)
		}
		if rr.Epoch >= epoch {
			st.lat = append(st.lat, ms(time.Since(start)))
			return rr, nil
		}
		if time.Now().After(deadline) {
			st.failed++
			return rr, fmt.Errorf("follower-visible: epoch %d not served after %v (at %d)", epoch, timeout, rr.Epoch)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// concat assembles a request body from JSON fragments. The token is
// passed through as the server sent it, the way a client that stores it
// opaquely would, instead of being re-encoded.
func concat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
