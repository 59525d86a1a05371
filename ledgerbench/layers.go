package main

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"dcsledger/internal/consensus/forkchoice"
	"dcsledger/internal/contract"
	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/exec"
	"dcsledger/internal/mpt"
	"dcsledger/internal/nodestore"
	"dcsledger/internal/obs"
	"dcsledger/internal/state"
	"dcsledger/internal/store"
	"dcsledger/internal/txpool"
	"dcsledger/internal/types"
	"dcsledger/internal/wal"
)

// The traced run's layer replay. After the timed loop, each block the
// validator connected is replayed, in connect order, through the public
// function of every layer the node's connect path calls, on a copy of
// the parent state and on scratch stores with the validator's
// durability settings. Each call is timed as its own span; the spans'
// sum per block reconciles with connect_p50_ms.

// reconcileTolerance is how far the replayed layers' summed time may
// sit from the untraced connect_p50_ms, as a share of the latter.
const reconcileTolerance = 0.25

// replayCap bounds the replayed blocks (the newest ones are kept); all
// of them are within the node's state-retention window.
const replayCap = 32

// connectLayers are the replayed calls in connect order; the
// reconciliation sums all of them.
var connectLayers = []string{
	"types.decode", "types.txroot", "types.verify", "consensus.verify_seal",
	"exec.apply", "state.commit", "store.add", "wal.log_block",
	"nodestore.mirror", "consensus.choose", "store.sethead", "wal.log_head",
}

// timingExecutor times every native contract invocation.
type timingExecutor struct {
	inner state.ForkableExecutor
	us    *series
}

func (t *timingExecutor) Deploy(st *state.State, tx *types.Transaction) (cryptoutil.Address, uint64, error) {
	return t.inner.Deploy(st, tx)
}

func (t *timingExecutor) Invoke(st *state.State, tx *types.Transaction) (uint64, error) {
	start := time.Now()
	gas, err := t.inner.Invoke(st, tx)
	t.us.addDur(time.Since(start), time.Microsecond)
	return gas, err
}

func (t *timingExecutor) Fork() state.Executor {
	return &timingExecutor{inner: t.inner.Fork().(state.ForkableExecutor), us: t.us}
}

func (t *timingExecutor) Absorb(fork state.Executor) {
	if f, ok := fork.(*timingExecutor); ok {
		t.inner.Absorb(f.inner)
	}
}

// traceReport sets a traced run's per-layer metrics: tracing overhead
// from the block-by-block toggle, the layer replay, and what the live
// loop measured at the proposer and the client.
func traceReport(r *run, m *measures, v *peer, timed [][]byte) error {
	var on, off []float64
	for i, d := range m.perBlock {
		if m.tracedBlock[i] {
			on = append(on, d)
		} else {
			off = append(off, d)
		}
	}
	r.setLayer("trace.overhead_pct", 100*(median(on)/median(off)-1), "%")
	if err := replayLayers(r, v, timed, m.perBlock); err != nil {
		return err
	}
	r.setLayer("txpool.select_ms", m.selectMs.quantile(0.5), "ms")
	r.setLayer("txpool.backlog", m.backlog.quantile(0.5), "count")
	r.setLayer("consensus.seal_ms", nodeSpanP50(r, obs.StagePowSeal), "ms")
	r.setLayer("node.lock_wait_us", m.readInConnectMs.quantile(0.5)*1e3-m.idleReadUs.quantile(0.5), "us")
	r.setLayer("metrics.write_ms", m.scrapeSvc.quantile(0.5), "ms")
	r.setLayer("client.late_p99_ms", m.lateMs.quantile(0.99), "ms")
	return nil
}

// replayLayers replays blocks (encoded, in connect order) against v and
// reports the per-layer metrics; live[i] is blocks[i]'s live connect
// time in ms, which the replayed layers reconcile with.
func replayLayers(r *run, v *peer, blocks [][]byte, live []float64) error {
	if len(blocks) != len(live) {
		return fmt.Errorf("replay: %d blocks, %d connect samples", len(blocks), len(live))
	}
	if len(blocks) > replayCap {
		blocks = blocks[len(blocks)-replayCap:]
		live = live[len(live)-replayCap:]
	}
	if len(blocks) == 0 {
		return errors.New("no blocks to replay")
	}
	first, err := types.DecodeBlock(blocks[0])
	if err != nil {
		return err
	}
	base, ok := v.n.Tree().Get(first.Header.ParentHash)
	if !ok {
		return errors.New("replay: first parent missing")
	}
	dir := filepath.Join(r.work, "replay")
	ds, _, err := wal.OpenStore(dir, wal.StoreOptions{Fsync: r.w.durable.fsync, CheckpointEvery: wal.DefaultCheckpointEvery})
	if err != nil {
		return err
	}
	defer ds.Close()
	ns, err := nodestore.Open(filepath.Join(dir, "state"), nodestore.Options{Sync: r.w.durable.sync})
	if err != nil {
		return err
	}
	defer ns.Close()
	// Seed the scratch node store with the first parent's trie, untimed.
	parentState, ok := v.n.StateAt(base.Hash())
	if !ok {
		return errors.New("replay: no parent state")
	}
	batch := ns.NewBatch(base.Header.Height)
	if _, err := parentState.AccountTrie().Commit(batch); err != nil {
		return err
	}
	if err := batch.Commit(); err != nil {
		return err
	}

	tree := store.NewBlockTree(base)
	chain := store.NewChain(tree)
	engine := newEngine(r.seed + 2)
	fc := forkchoice.LongestChain{}
	layers := map[string]*series{}
	for _, name := range connectLayers {
		layers[name] = &series{}
	}
	var (
		sums, addUs, ckptMs, invokeUs, sizes, dirty series
		runs, merged, replayed, badReceipts         int
	)
	for i, raw := range blocks {
		var (
			b     *types.Block
			st    *state.State
			recs  []*state.Receipt
			es    *exec.Stats
			root  cryptoutil.Hash
			tip   cryptoutil.Hash
			total time.Duration
		)
		step := func(name string, height uint64, fn func() error) error {
			d, err := r.spans.timed(name, height, fn)
			layers[name].addDur(d, time.Millisecond)
			total += d
			if err != nil {
				return fmt.Errorf("replay %s: %w", name, err)
			}
			return nil
		}
		if err := step("types.decode", 0, func() (err error) { b, err = types.DecodeBlock(raw); return err }); err != nil {
			return err
		}
		h := b.Header.Height
		parent, ok := tree.Get(b.Header.ParentHash)
		if !ok {
			return fmt.Errorf("replay: block %d out of order", h)
		}
		steps := []struct {
			name string
			fn   func() error
		}{
			{"types.txroot", func() error {
				if !b.VerifyTxRoot() {
					return errors.New("tx root mismatch")
				}
				return nil
			}},
			{"types.verify", func() error { return types.VerifyBatch(b.Txs) }},
			{"consensus.verify_seal", func() error { return engine.VerifySeal(b, parent) }},
			{"exec.apply", func() (err error) {
				st, recs, es, err = applyFresh(v, b, func(ce *contract.Executor) state.Executor {
					return &timingExecutor{inner: ce, us: &invokeUs}
				})
				return err
			}},
			{"state.commit", func() error {
				if root = st.Commit(); root != b.Header.StateRoot {
					return errors.New("state root mismatch")
				}
				return nil
			}},
			{"store.add", func() error { return tree.Add(b) }},
			{"wal.log_block", func() error { return ds.LogBlock(b) }},
			{"nodestore.mirror", func() error { return mirror(ns, parent.Header.StateRoot, st, h, root) }},
			{"consensus.choose", func() (err error) { tip, err = fc.Choose(tree); return err }},
			{"store.sethead", func() error { _, _, err := chain.SetHead(tip); return err }},
			{"wal.log_head", func() error {
				if err := ds.LogHead(tip); err != nil {
					return err
				}
				_, err := ds.MaybeCheckpoint(b, root, st)
				return err
			}},
		}
		for _, s := range steps {
			if err := step(s.name, h, s.fn); err != nil {
				return err
			}
		}
		sums.addDur(total, time.Millisecond)
		sizes.add(float64(len(raw)))
		dirty.add(float64(len(st.DirtyAddresses())))
		runs += es.Runs
		merged += es.MergedRuns
		replayed += es.ReplayedTxs
		for _, rec := range recs {
			if !rec.OK {
				badReceipts++
			}
		}

		// Off the connect path: an explicit checkpoint every few blocks,
		// and admission of the block's transactions into a fresh pool
		// (fresh decodes, so every Add verifies a signature).
		if i%8 == 0 {
			d, err := r.spans.timed("wal.checkpoint", h, func() error { return ds.Checkpoint(b, root, st) })
			if err != nil {
				return err
			}
			ckptMs.addDur(d, time.Millisecond)
		}
		fresh, err := types.DecodeBlock(raw)
		if err != nil {
			return err
		}
		pool := txpool.New(0)
		for _, tx := range fresh.Txs[1:] {
			d, err := r.spans.timed("txpool.add", h, func() error { return pool.Add(tx) })
			if err != nil {
				return err
			}
			addUs.addDur(d, time.Microsecond)
		}
	}
	r.gate("replay-receipts-ok", badReceipts == 0, "%d failed receipts over %d replayed blocks", badReceipts, len(blocks))

	p50 := func(name string) float64 { return layers[name].quantile(0.5) }
	r.setLayer("types.decode_ms", p50("types.decode"), "ms")
	r.setLayer("types.txroot_ms", p50("types.txroot"), "ms")
	r.setLayer("types.verify_ms", p50("types.verify"), "ms")
	r.setLayer("types.block_bytes", sizes.mean(), "bytes")
	r.setLayer("consensus.verify_seal_us", p50("consensus.verify_seal")*1e3, "us")
	r.setLayer("exec.apply_ms", p50("exec.apply"), "ms")
	r.setLayer("exec.merge_ratio", float64(merged)/float64(max(runs, 1)), "ratio")
	r.setLayer("exec.replayed_txs", float64(replayed)/float64(len(blocks)), "count")
	r.setLayer("contract.invoke_us", invokeUs.quantile(0.5), "us")
	r.setLayer("state.commit_ms", p50("state.commit"), "ms")
	r.setLayer("state.dirty_accounts", dirty.mean(), "count")
	r.setLayer("store.add_us", p50("store.add")*1e3, "us")
	r.setLayer("store.sethead_us", p50("store.sethead")*1e3, "us")
	r.setLayer("consensus.choose_us", p50("consensus.choose")*1e3, "us")
	r.setLayer("wal.log_block_ms", p50("wal.log_block"), "ms")
	r.setLayer("wal.log_head_ms", p50("wal.log_head"), "ms")
	r.setLayer("wal.checkpoint_ms", ckptMs.quantile(0.5), "ms")
	r.setLayer("nodestore.mirror_ms", p50("nodestore.mirror"), "ms")
	r.setLayer("txpool.add_us", addUs.quantile(0.5), "us")

	// Reconciliation: the layers' summed time per block against the
	// same blocks' live connect median, and each layer's share of it.
	connect, sum := median(live), sums.quantile(0.5)
	gap := reconcile(r, connect, sum)
	r.setLayer("node.connect_self_ms", connect-sum, "ms")
	r.setLayer("trace.reconcile_gap", gap, "ratio")
	fmt.Fprintf(r.out, "layers of connect (p50 %.3f ms over %d blocks; replayed sum %.3f ms)\n", connect, len(blocks), sum)
	for _, name := range connectLayers {
		fmt.Fprintf(r.out, "  share %-22s %9.3f ms %6.1f%%\n", name, p50(name), 100*p50(name)/connect)
	}
	fmt.Fprintf(r.out, "  share %-22s %9.3f ms %6.1f%%\n", "node (self)", connect-sum, 100*gap)
	return nil
}

// reconcile checks that the replayed layers' summed time per block
// (sum) lies within reconcileTolerance of the live connect time
// (connect), and returns the gap, (connect - sum) / connect.
func reconcile(r *run, connect, sum float64) float64 {
	gap := (connect - sum) / connect
	r.gate("trace-reconciles", math.Abs(gap) <= reconcileTolerance,
		"replayed layers %.3f ms, live connect %.3f ms, gap %+.1f%% (tolerance ±%.0f%%)",
		sum, connect, 100*gap, 100*reconcileTolerance)
	return gap
}

// mirror extends the scratch node store's account trie by one block:
// load the parent trie by root, rewrite the block's dirty leaves,
// commit the new nodes as one batch. It is the node's disk-state path
// expressed through the mpt and nodestore public functions.
func mirror(ns *nodestore.Store, parentRoot cryptoutil.Hash, st *state.State, height uint64, want cryptoutil.Hash) error {
	tr := mpt.Load(parentRoot, 0, ns)
	var err error
	for _, addr := range st.DirtyAddresses() {
		if leaf, ok := st.AccountLeaf(addr); ok {
			tr, err = tr.TrySet(addr[:], leaf)
		} else {
			tr, _, err = tr.TryDelete(addr[:])
		}
		if err != nil {
			return err
		}
	}
	batch := ns.NewBatch(height)
	root, err := tr.Commit(batch)
	if err != nil {
		return err
	}
	if err := batch.Commit(); err != nil {
		return err
	}
	if root != want {
		return fmt.Errorf("mirrored root %s, header %s", root.Short(), want.Short())
	}
	return nil
}

// nodeSpanP50 is the median duration, in ms, of the spans the nodes
// emitted for stage; NaN when there are none.
func nodeSpanP50(r *run, stage string) float64 {
	var s series
	for _, sp := range r.spans.nodeSpans(stage) {
		s.addDur(sp.Duration(), time.Millisecond)
	}
	return s.quantile(0.5)
}
