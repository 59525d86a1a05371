package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"slices"
	"testing"
	"time"

	"dcsledger/internal/simclock"
	"dcsledger/internal/types"
)

// tiny shrinks a workload to a size that runs in about a second.
func tiny(w workload) workload {
	w.accounts, w.blockTxs = senders, 80 // block 1 holds the 66-tx token set-up
	w.warm, w.setups, w.restarts = 3, 2, 2
	if w.interval > 0 {
		w.interval = 100 * time.Millisecond
		w.readRate, w.proofRate, w.scrapeEvery = 100, 50, 50*time.Millisecond
	}
	return w
}

func TestTinyWorkloads(t *testing.T) {
	for _, name := range []string{"chain-small", "chain-large", "serve-durable"} {
		for _, trace := range []bool{false, true} {
			w := tiny(workloads[name])
			var out bytes.Buffer
			res, err := execute(w, 7, 1, trace, t.TempDir(), &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", name, trace, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s",
					name, trace, res.Correct, res.Failed, res.Attempted, out.String())
			}
		}
	}
}

// TestFingerprintRepeats runs one seed twice in the same work directory:
// the second run must find the first one's fingerprint unchanged.
func TestFingerprintRepeats(t *testing.T) {
	w := tiny(workloads["chain-small"])
	dir := t.TempDir()
	for i := 0; i < 2; i++ {
		var out bytes.Buffer
		res, err := execute(w, 3, 0.5, false, dir, &out)
		if err != nil || !res.Correct {
			t.Fatalf("run %d: err=%v\n%s", i, err, out.String())
		}
		if i == 1 && !bytes.Contains(out.Bytes(), []byte("gate fingerprint-repeats        ok   digest")) {
			t.Fatalf("second run did not compare fingerprints:\n%s", out.String())
		}
	}
}

// TestMemoTrap checks the benchmark's block hand-off. A block whose one
// transaction carries a corrupted signature, but whose in-memory object
// still has the verification memo set, is accepted when handed over as
// that object; handed over as bytes, the way the benchmark delivers
// every block, the validator must reject it.
func TestMemoTrap(t *testing.T) {
	acc := newAccounts(11, senders)
	alloc := acc.alloc()
	newValidator := func() *peer {
		v, _, err := openPeer(peerConfig{
			id: "validator", key: acc.owner, alloc: alloc,
			clock: simclock.NewSimulator(), engine: newEngine(1),
		})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	sender := acc.senders[0]
	tx := types.NewTransfer(sender.Address(), acc.addrs[3], 5, 1, 0)
	if err := tx.SignDeterministic(sender); err != nil {
		t.Fatal(err)
	}
	if err := tx.Verify(); err != nil { // sets the memo
		t.Fatal(err)
	}
	other := types.NewTransfer(sender.Address(), acc.addrs[4], 6, 1, 0)
	if err := other.SignDeterministic(sender); err != nil {
		t.Fatal(err)
	}
	tx.Sig = other.Sig // a valid signature, over another transaction

	v := newValidator()
	genesis, _ := v.n.Tree().Get(v.n.Tree().Genesis())
	miner := acc.miner.Address()
	reward := rewards.RewardAt(1)
	blk := types.NewBlock(genesis.Hash(), 1, int64(time.Second), miner,
		[]*types.Transaction{types.NewCoinbase(miner, reward+tx.Fee, 1), tx})
	st, ok := v.n.StateAt(genesis.Hash())
	if !ok {
		t.Fatal("no genesis state")
	}
	next := st.Copy()
	if _, err := next.ApplyBlock(blk, reward); err != nil {
		t.Fatal(err)
	}
	blk.Header.StateRoot = next.Commit()
	engine := newEngine(2)
	if err := engine.Prepare(&blk.Header, genesis); err != nil {
		t.Fatal(err)
	}
	if err := engine.Seal(blk, genesis); err != nil {
		t.Fatal(err)
	}

	if _, err := deliver(v.n, blk.Encode()); !errors.Is(err, types.ErrBadSignature) {
		t.Fatalf("delivered as bytes: err = %v, want %v", err, types.ErrBadSignature)
	}
	if v.n.Chain().Height() != 0 {
		t.Fatal("validator connected the corrupted block")
	}
	leaky := newValidator()
	if err := leaky.n.HandleBlock(blk); err != nil {
		t.Fatalf("handed over as an object the memo should hide the bad signature, got %v", err)
	}
}

// TestReconcileGate checks that a traced run whose replayed layers do
// not add up to the live connect time fails its correctness gate.
func TestReconcileGate(t *testing.T) {
	for _, c := range []struct {
		connect, sum float64
		ok           bool
	}{
		{connect: 10, sum: 9, ok: true},
		{connect: 10, sum: 12, ok: true},
		{connect: 10, sum: 5, ok: false},
		{connect: 10, sum: 13, ok: false},
	} {
		r := &run{out: io.Discard}
		reconcile(r, c.connect, c.sum)
		if ok := len(r.gates) == 0; ok != c.ok {
			t.Errorf("connect %g ms, layers %g ms: passed=%v, want %v", c.connect, c.sum, ok, c.ok)
		}
	}
}

// TestBenchmarkJSONNames keeps BENCHMARK.json and the program in step:
// every listed workload exists, and the metric names match exactly.
func TestBenchmarkJSONNames(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		slices.Sort(out)
		return out
	}
	sorted := func(xs []string) []string {
		out := slices.Clone(xs)
		slices.Sort(out)
		return out
	}
	for _, name := range names(spec.Workloads) {
		if _, ok := workloads[name]; !ok {
			t.Errorf("BENCHMARK.json lists workload %q, which the program lacks", name)
		}
	}
	if got, want := names(spec.EndToEnd), sorted(endToEndMetrics); !slices.Equal(got, want) {
		t.Errorf("end_to_end %v, program reports %v", got, want)
	}
	if got, want := names(spec.PerLayer), sorted(perLayerMetrics); !slices.Equal(got, want) {
		t.Errorf("per_layer %v, program reports %v", got, want)
	}
}
