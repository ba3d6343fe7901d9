package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/datagen"
	"repro/internal/master"
	"repro/internal/relation"
	"repro/internal/rule"
)

// HOSP generation parameters shared by every workload (§6: duplicate
// rate d%, noise rate n%); the master size is the workload's.
const (
	dupRate   = 0.3
	noiseRate = 0.2
	stormAdds = 8
	stormDels = 8
)

// inputs is one run's generated work: the dataset (rules, indexed
// master, dirty tuples and their ground truths), which tuples warm up
// and which are measured, the update storm, and the files the daemons
// read. Everything derives from the seed.
type inputs struct {
	ds         *datagen.Dataset
	warm       []int // indexes into ds.Inputs, run before timing starts
	measured   []int // indexes into ds.Inputs, timed
	storm      []datagen.DeltaBatch
	rulesPath  string
	masterPath string
	digest     string
}

// generate builds the run's inputs in dir: warm+measured session tuples
// and a storm of stormBatches delta batches over a |Dm| = masterSize
// HOSP master.
func generate(dir string, seed int64, masterSize, warm, measured, stormBatches int) (*inputs, error) {
	ds, err := datagen.Hosp(datagen.Config{
		Seed:       seed,
		MasterSize: masterSize,
		Tuples:     warm + measured,
		DupRate:    dupRate,
		NoiseRate:  noiseRate,
	})
	if err != nil {
		return nil, err
	}
	in := &inputs{ds: ds}
	for i := 0; i < warm+measured; i++ {
		if i < warm {
			in.warm = append(in.warm, i)
		} else {
			in.measured = append(in.measured, i)
		}
	}
	// The storm seed is derived, not shared, so the storm's draws do not
	// repeat the tuple generator's.
	in.storm = datagen.UpdateStorm(ds, seed*7919+1, stormBatches, stormAdds, stormDels)

	in.rulesPath = filepath.Join(dir, "hosp.rules")
	in.masterPath = filepath.Join(dir, "hosp_master.csv")
	header := fmt.Sprintf("schema %s: %s\nmaster %s: %s\n",
		ds.Sigma.Schema().Name(), strings.Join(ds.Sigma.Schema().AttrNames(), ", "),
		ds.Master.Schema().Name(), strings.Join(ds.Master.Schema().AttrNames(), ", "))
	rulesSrc := []byte(header + datagen.HospRulesDSL)
	if err := os.WriteFile(in.rulesPath, rulesSrc, 0o644); err != nil {
		return nil, err
	}
	if err := writeCSV(in.masterPath, ds.Master.Relation()); err != nil {
		return nil, err
	}

	// The digest covers exactly what the program receives: the two files,
	// the session tuples in order, and the storm. Equal digests mean two
	// runs did identical work.
	h := sha256.New()
	h.Write(rulesSrc)
	mf, err := os.ReadFile(in.masterPath)
	if err != nil {
		return nil, err
	}
	h.Write(mf)
	enc := json.NewEncoder(h)
	for _, idx := range [][]int{in.warm, in.measured} {
		for _, i := range idx {
			if err := enc.Encode([]relation.Tuple{ds.Inputs[i], ds.Truths[i]}); err != nil {
				return nil, err
			}
		}
	}
	for _, b := range in.storm {
		if err := enc.Encode(b); err != nil {
			return nil, err
		}
	}
	in.digest = hex.EncodeToString(h.Sum(nil))[:16]
	return in, nil
}

func writeCSV(path string, rel *relation.Relation) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := rel.WriteCSV(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// applyStorm derives the master relation a storm prefix leaves behind,
// apart from internal/master: each batch deletes its ids in descending
// order by swap-remove (the last tuple moves into the freed slot), then
// appends its adds in order — the documented ApplyDelta semantics.
func applyStorm(rel *relation.Relation, batches []datagen.DeltaBatch) (*relation.Relation, error) {
	tuples := append([]relation.Tuple(nil), rel.Tuples()...)
	for bi, b := range batches {
		del := append([]int(nil), b.Deletes...)
		sort.Sort(sort.Reverse(sort.IntSlice(del)))
		for _, id := range del {
			last := len(tuples) - 1
			if id < 0 || id > last {
				return nil, fmt.Errorf("storm batch %d deletes id %d of %d tuples", bi, id, len(tuples))
			}
			tuples[id] = tuples[last]
			tuples = tuples[:last]
		}
		tuples = append(tuples, b.Adds...)
	}
	return relation.FromTuples(rel.Schema(), tuples)
}

// masterState is what a node reports about its master: size, epoch and
// Merkle root.
type masterState struct {
	Size  int
	Epoch uint64
	Root  string
}

// expectedMaster is the state a fresh authenticated master.NewForRules
// over the storm-derived relation has — the oracle the final state of
// every node must equal.
func expectedMaster(rel *relation.Relation, sigma *rule.Set, batches []datagen.DeltaBatch) (masterState, error) {
	final, err := applyStorm(rel, batches)
	if err != nil {
		return masterState{}, err
	}
	dm, err := master.NewForRules(final, sigma, master.WithAuth())
	if err != nil {
		return masterState{}, err
	}
	root, ok := dm.AuthRoot()
	if !ok {
		return masterState{}, fmt.Errorf("fresh authenticated master has no root")
	}
	return masterState{Size: dm.Len(), Epoch: uint64(len(batches)), Root: root.String()}, nil
}
