package main

import (
	"fmt"

	"repro/internal/relation"
	"repro/internal/rule"
	"repro/pkg/certainfix"
)

// verdict collects check failures; a run is correct only when it holds
// none. Only the first few failures are kept for the report.
type verdict struct {
	errs    []error
	dropped int
}

func (v *verdict) add(err error) {
	if err == nil {
		return
	}
	if len(v.errs) < 20 {
		v.errs = append(v.errs, err)
	} else {
		v.dropped++
	}
}

func (v *verdict) ok() bool { return len(v.errs) == 0 }

// checkSession checks one finished session against facts computed apart
// from the fixing path: the session completed within arity+1 rounds,
// the user-asserted and auto-fixed cells together cover every attribute,
// and — when truth is non-nil — the final tuple is the generator's
// ground truth, cell for cell.
func checkSession(res *certainfix.Result, truth relation.Tuple, arity int) error {
	if !res.Completed {
		return fmt.Errorf("session ended without completing (rounds %d)", res.Rounds)
	}
	if res.Rounds > arity+1 {
		return fmt.Errorf("session took %d rounds, more than arity+1 = %d", res.Rounds, arity+1)
	}
	if len(res.Tuple) != arity {
		return fmt.Errorf("final tuple has arity %d, want %d", len(res.Tuple), arity)
	}
	covered := res.UserValidated.Union(res.AutoFixed)
	for p := 0; p < arity; p++ {
		if !covered.Has(p) {
			return fmt.Errorf("attribute %d neither asserted nor auto-fixed", p)
		}
	}
	if truth == nil {
		return nil
	}
	for p := range truth {
		if !res.Tuple[p].Equal(truth[p]) {
			return fmt.Errorf("attribute %d fixed to %q, ground truth %q", p, res.Tuple[p].Encode(), truth[p].Encode())
		}
	}
	return nil
}

// checkProvenance verifies a result offline against the root its
// session pinned at begin: every auto-fixed cell must carry a witness
// whose rule, master tuple and inclusion proof justify it.
func checkProvenance(sigma *rule.Set, res *certainfix.Result, pinnedRoot string) error {
	if pinnedRoot == "" {
		return fmt.Errorf("session pinned no root")
	}
	if res.Root != pinnedRoot {
		return fmt.Errorf("result root %s differs from the root pinned at begin %s", res.Root, pinnedRoot)
	}
	return certainfix.VerifyFix(sigma, res, pinnedRoot)
}

// checkReplica checks that leader and follower publish the same
// (epoch, root) for the epoch an update produced.
func checkReplica(epoch uint64, leader, follower rootReply) error {
	if leader.Epoch != epoch || follower.Epoch != epoch {
		return fmt.Errorf("epoch %d: leader at %d, follower at %d", epoch, leader.Epoch, follower.Epoch)
	}
	if leader.Root == "" || leader.Root != follower.Root {
		return fmt.Errorf("epoch %d: leader root %q, follower root %q", epoch, leader.Root, follower.Root)
	}
	return nil
}

// checkFinalMaster checks a node's final master against the independently
// derived expectation: same size, epoch and root.
func checkFinalMaster(node string, want, got masterState) error {
	if got.Size != want.Size {
		return fmt.Errorf("%s: final master size %d, derived %d", node, got.Size, want.Size)
	}
	if got.Epoch != want.Epoch {
		return fmt.Errorf("%s: final epoch %d, storm applied %d batches", node, got.Epoch, want.Epoch)
	}
	if got.Root != want.Root {
		return fmt.Errorf("%s: final root %s, fresh build over the derived master %s", node, got.Root, want.Root)
	}
	return nil
}
