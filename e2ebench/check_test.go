package main

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/master"
	"repro/internal/relation"
	"repro/pkg/certainfix"
)

// fixture is a small HOSP dataset with one session per input fixed
// in-process by the simulated user, on an authenticated System.
type fixture struct {
	ds      *datagen.Dataset
	results []certainfix.Result
	root    string
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	ds, err := datagen.Hosp(datagen.Config{Seed: 3, MasterSize: 300, Tuples: 30, DupRate: dupRate, NoiseRate: noiseRate})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := certainfix.New(ds.Sigma, ds.Master.Relation(), certainfix.WithAuth())
	if err != nil {
		t.Fatal(err)
	}
	root, ok := sys.MasterRoot()
	if !ok {
		t.Fatal("authenticated System has no root")
	}
	f := &fixture{ds: ds, root: root}
	for i, in := range ds.Inputs {
		res, err := sys.Fix(in, certainfix.SimulatedUser{Truth: ds.Truths[i]})
		if err != nil {
			t.Fatal(err)
		}
		f.results = append(f.results, res)
	}
	return f
}

// withProvenance returns the index of a result with auto-fixed cells.
func (f *fixture) withProvenance(t *testing.T) int {
	t.Helper()
	for i, res := range f.results {
		if len(res.Provenance) > 0 {
			return i
		}
	}
	t.Fatal("no session auto-fixed anything")
	return -1
}

func TestCheckSessionAcceptsGroundTruth(t *testing.T) {
	f := newFixture(t)
	arity := f.ds.Sigma.Schema().Arity()
	for i := range f.results {
		if err := checkSession(&f.results[i], f.ds.Truths[i], arity); err != nil {
			t.Fatalf("input %d: %v", i, err)
		}
	}
}

func TestCheckSessionRejectsFlippedCell(t *testing.T) {
	f := newFixture(t)
	i := f.withProvenance(t)
	res := f.results[i]
	res.Tuple = res.Tuple.Clone()
	p := res.Provenance[0].Attr
	res.Tuple[p] = relation.String(res.Tuple[p].Encode() + "x")

	var v verdict
	v.add(checkSession(&res, f.ds.Truths[i], f.ds.Sigma.Schema().Arity()))
	if v.ok() {
		t.Fatal("a flipped auto-fixed cell passed the ground-truth check")
	}
}

func TestCheckSessionRejectsUncoveredAttribute(t *testing.T) {
	f := newFixture(t)
	i := f.withProvenance(t)
	res := f.results[i]
	res.AutoFixed = res.AutoFixed.Clone()
	res.AutoFixed.Remove(res.Provenance[0].Attr)
	if err := checkSession(&res, f.ds.Truths[i], f.ds.Sigma.Schema().Arity()); err == nil {
		t.Fatal("an attribute neither asserted nor fixed passed the coverage check")
	}
}

func TestCheckProvenance(t *testing.T) {
	f := newFixture(t)
	i := f.withProvenance(t)
	if err := checkProvenance(f.ds.Sigma, &f.results[i], f.root); err != nil {
		t.Fatalf("genuine provenance rejected: %v", err)
	}

	// A forged witness: the master tuple it cites no longer matches the
	// tuple the inclusion proof commits to.
	forged := f.results[i]
	forged.Provenance = append([]certainfix.Witness(nil), forged.Provenance...)
	w := forged.Provenance[0]
	w.Master = w.Master.Clone()
	for p := range w.Master {
		if !w.Master[p].IsNull() {
			w.Master[p] = relation.String(w.Master[p].Encode() + "-forged")
		}
	}
	forged.Provenance[0] = w
	var v verdict
	v.add(checkProvenance(f.ds.Sigma, &forged, f.root))
	if v.ok() {
		t.Fatal("a forged provenance witness verified")
	}

	// A result checked against a root other than the one pinned.
	if err := checkProvenance(f.ds.Sigma, &f.results[i], ""); err == nil {
		t.Fatal("a session without a pinned root verified")
	}
}

func TestCheckReplicaRejectsDifferentRoot(t *testing.T) {
	leader := rootReply{Epoch: 7, Root: "aa"}
	if err := checkReplica(7, leader, leader); err != nil {
		t.Fatalf("identical replicas rejected: %v", err)
	}
	var v verdict
	v.add(checkReplica(7, leader, rootReply{Epoch: 7, Root: "bb"}))
	if v.ok() {
		t.Fatal("a follower root differing from the leader's passed")
	}
	if err := checkReplica(7, leader, rootReply{Epoch: 6, Root: "aa"}); err == nil {
		t.Fatal("a follower behind the update's epoch passed")
	}
}

// TestExpectedMasterMatchesLineage pins the oracle: the storm applied by
// applyStorm, built fresh, has the size and root of the same storm
// applied through master.ApplyDelta on an authenticated snapshot.
func TestExpectedMasterMatchesLineage(t *testing.T) {
	f := newFixture(t)
	storm := datagen.UpdateStorm(f.ds, 11, 12, stormAdds, stormDels)
	want, err := expectedMaster(f.ds.Master.Relation(), f.ds.Sigma, storm)
	if err != nil {
		t.Fatal(err)
	}
	dm, err := master.NewForRules(f.ds.Master.Relation(), f.ds.Sigma, master.WithAuth())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range storm {
		if dm, err = dm.ApplyDelta(b.Adds, b.Deletes); err != nil {
			t.Fatal(err)
		}
	}
	root, _ := dm.AuthRoot()
	got := masterState{Size: dm.Len(), Epoch: dm.Epoch(), Root: root.String()}
	if err := checkFinalMaster("lineage", want, got); err != nil {
		t.Fatal(err)
	}
}

func TestCheckFinalMasterRejectsSize(t *testing.T) {
	want := masterState{Size: 100, Epoch: 4, Root: "cc"}
	bad := want
	bad.Size++
	var v verdict
	v.add(checkFinalMaster("leader", want, bad))
	if v.ok() {
		t.Fatal("a final master size that does not add up passed")
	}
	bad = want
	bad.Root = "dd"
	if err := checkFinalMaster("follower", want, bad); err == nil {
		t.Fatal("a final root differing from the fresh build passed")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "session", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "a", ID: 1, Parent: 0, Start: 10, End: 30},
		{Name: "b", ID: 2, Parent: 0, Start: 50, End: 60},
		{Name: "c", ID: 3, Parent: 2, Start: 52, End: 55},
	}
	self := selfTimes(spans)
	for name, want := range map[string]float64{"session": 70, "a": 20, "b": 7, "c": 3} {
		if got := self[name]; len(got) != 1 || got[0] != want {
			t.Errorf("self(%s) = %v, want %v", name, got, want)
		}
	}
}
