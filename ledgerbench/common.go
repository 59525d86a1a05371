package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"dcsledger/internal/contract"
	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/exec"
	"dcsledger/internal/simclock"
	"dcsledger/internal/state"
	"dcsledger/internal/types"
)

// openValidator builds a durable validator in a fresh data directory
// and boots it as cmd/ledgerd does: recover whatever the directory
// holds, then start.
func openValidator(r *run, key *cryptoutil.KeyPair, alloc map[cryptoutil.Address]uint64, name string) (*peer, error) {
	v, rec, err := openPeer(peerConfig{
		id: "validator", key: key, alloc: alloc, clock: simclock.Wall{},
		engine: newEngine(r.seed + 1), durable: &r.w.durable,
		dir: filepath.Join(r.work, name),
	})
	if err != nil {
		return nil, err
	}
	if err := v.n.Recover(rec); err != nil {
		return nil, errors.Join(err, v.discard())
	}
	v.n.Start()
	return v, nil
}

// storeSnap is a validator's durability counters at one instant.
type storeSnap struct {
	walBytes, walFsyncs                uint64
	nsBytes, nsSyncs, nsHits, nsMisses uint64
}

func snapStores(v *peer) storeSnap {
	ws, ns := v.ds.Stats(), v.ns.Stats()
	return storeSnap{
		walBytes: ws.WAL.Bytes, walFsyncs: ws.WAL.Fsyncs,
		nsBytes: ns.Bytes, nsSyncs: ns.Syncs, nsHits: ns.CacheHits, nsMisses: ns.CacheMisses,
	}
}

// storeLayers reports the durability layers' per-block counts between
// two snapshots spanning the given number of connected blocks.
func storeLayers(r *run, a, b storeSnap, blocks int) {
	n := float64(max(blocks, 1))
	r.setLayer("wal.bytes_per_block", float64(b.walBytes-a.walBytes)/n, "bytes")
	r.setLayer("wal.fsyncs_per_block", float64(b.walFsyncs-a.walFsyncs)/n, "count")
	r.setLayer("nodestore.bytes_per_block", float64(b.nsBytes-a.nsBytes)/n, "bytes")
	r.setLayer("nodestore.syncs_per_block", float64(b.nsSyncs-a.nsSyncs)/n, "count")
	hits, misses := float64(b.nsHits-a.nsHits), float64(b.nsMisses-a.nsMisses)
	r.setLayer("nodestore.cache_hit_ratio", hits/max(hits+misses, 1), "ratio")
}

// fingerprint replays the warm-up blocks' execution and prints the
// counts that must repeat exactly for a seed. A fingerprint that differs
// from the one an earlier run of the same binary recorded for the same
// workload and seed fails the determinism gate.
func fingerprint(r *run, v *peer, blocks [][]byte, before storeSnap) error {
	var (
		head                            cryptoutil.Hash
		size, dirty, runs, merged, repl int
	)
	for _, raw := range blocks {
		b, err := types.DecodeBlock(raw)
		if err != nil {
			return err
		}
		st, _, stats, err := applyFresh(v, b, nil)
		if err != nil {
			return fmt.Errorf("fingerprint: %w", err)
		}
		head = b.Hash()
		size += len(raw)
		dirty += len(st.DirtyAddresses())
		runs += stats.Runs
		merged += stats.MergedRuns
		repl += stats.ReplayedTxs
	}
	after := snapStores(v)
	line := fmt.Sprintf("workload=%s seed=%d blocks=%d head=%s block_bytes=%d dirty_accounts=%d exec_runs=%d exec_merged=%d exec_replayed=%d wal_bytes=%d nodestore_bytes=%d",
		r.w.name, r.seed, len(blocks), head.Hex(), size, dirty, runs, merged, repl,
		after.walBytes-before.walBytes, after.nsBytes-before.nsBytes)
	sum := sha256.Sum256([]byte(line))
	digest := hex.EncodeToString(sum[:8])
	fmt.Fprintf(r.out, "fingerprint %s %s\n", digest, line)

	id, err := binaryID()
	if err != nil {
		return err
	}
	path := filepath.Join(r.root, "fingerprints", fmt.Sprintf("%s-%d-%s", r.w.name, r.seed, id))
	prev, err := os.ReadFile(path)
	switch {
	case err == nil:
		r.gate("fingerprint-repeats", string(prev) == line, "digest %s vs recorded %x", digest, sha256.Sum256(prev))
	case errors.Is(err, os.ErrNotExist):
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(path, []byte(line), 0o644); err != nil {
			return err
		}
		r.gate("fingerprint-repeats", true, "first run of this binary on seed %d", r.seed)
	default:
		return err
	}
	return nil
}

// binaryID names the running executable by a hash of its bytes, so a
// rebuilt benchmark or ledger starts a fresh fingerprint record.
func binaryID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)[:6]), nil
}

// applyFresh executes b on a copy of its parent's state at v, with a
// fresh contract executor (optionally wrapped) so the node's own
// executor is left alone.
func applyFresh(v *peer, b *types.Block, wrap func(*contract.Executor) state.Executor) (*state.State, []*state.Receipt, *exec.Stats, error) {
	parent, ok := v.n.StateAt(b.Header.ParentHash)
	if !ok {
		return nil, nil, nil, fmt.Errorf("no state for parent of block %d", b.Header.Height)
	}
	ce := contract.NewExecutor(contract.NewRegistry())
	ce.SetNow(b.Header.Time)
	p := parent.Copy()
	if wrap != nil {
		p.SetExecutor(wrap(ce))
	} else {
		p.SetExecutor(ce)
	}
	ex := &exec.Executor{Workers: runtime.GOMAXPROCS(0)}
	return ex.ApplyBlock(p, b, rewards.RewardAt(b.Header.Height))
}

// recoverValidator shuts the validator down, reopens its data directory
// and recovers it, w.restarts times, timing each whole restart and its
// parts; recover_s is the median. It checks that every recovery reaches the head the
// validator had before shutdown, and returns the last recovered
// validator.
func recoverValidator(r *run, v *peer) (*peer, error) {
	head, height := v.n.Chain().Head(), v.n.Chain().Height()
	var total, walOpen, replay series
	for i := 0; i < r.w.restarts; i++ {
		if err := v.close(); err != nil {
			return nil, fmt.Errorf("close validator: %w", err)
		}
		runtime.GC()
		start := time.Now()
		nv, rec, err := openPeer(v.cfg)
		if err != nil {
			return nil, fmt.Errorf("reopen validator: %w", err)
		}
		recStart := time.Now()
		err = r.op(nv.n.Recover(rec))
		replay.addDur(time.Since(recStart), time.Millisecond)
		nv.n.Start()
		total.addDur(time.Since(start), time.Second)
		walOpen.addDur(nv.walOpen, time.Millisecond)
		r.gate("recovered-head", err == nil && nv.n.Chain().Head() == head,
			"height %d, %d journaled blocks", height, len(rec.Blocks))
		v = nv
	}
	r.setE2E("recover_s", total.quantile(0.5), "s")
	r.setLayer("wal.open_ms", walOpen.quantile(0.5), "ms")
	r.setLayer("node.recover_ms", replay.quantile(0.5), "ms")
	return v, nil
}

// diskGates checks the validator's durability error counters.
func diskGates(r *run, v *peer) {
	m := v.n.Metrics()
	r.gate("disk-and-wal-errors", m.DiskRootMismatches == 0 && m.DiskFullRebuilds == 0 &&
		m.DiskErrors == 0 && m.WALAppendErrors == 0,
		"root mismatches %d, full rebuilds %d, disk errors %d, wal append errors %d",
		m.DiskRootMismatches, m.DiskFullRebuilds, m.DiskErrors, m.WALAppendErrors)
	r.gate("no-rejected-blocks", m.BlocksRejected == 0, "%d rejected", m.BlocksRejected)
}

// commitGates checks that every submitted transaction sits in exactly
// one block of v's main chain above height from, that nothing else
// does, and that every token transfer took effect.
func commitGates(r *run, v *peer, acc *accounts, submitted [][]byte, from uint64) error {
	want := make(map[cryptoutil.Hash]bool, len(submitted))
	for _, raw := range submitted {
		tx, err := types.DecodeTransaction(raw)
		if err != nil {
			return err
		}
		want[tx.ID()] = true
	}
	seen := make(map[cryptoutil.Hash]bool, len(submitted))
	stray, dup := 0, 0
	tokens := map[cryptoutil.Address]uint64{}
	for h := uint64(1); h <= v.n.Chain().Height(); h++ {
		bh, _ := v.n.Chain().AtHeight(h)
		b, ok := v.n.Tree().Get(bh)
		if !ok {
			return fmt.Errorf("main chain block %d missing", h)
		}
		for _, tx := range b.Txs[1:] {
			if err := tokenEffect(tokens, acc, tx); err != nil {
				return err
			}
			if h <= from {
				continue
			}
			id := tx.ID()
			switch {
			case !want[id]:
				stray++
			case seen[id]:
				dup++
			default:
				seen[id] = true
			}
		}
	}
	r.gate("committed-exactly-once", stray == 0 && dup == 0 && len(seen) == len(want),
		"%d of %d submitted committed, %d duplicates, %d unsubmitted", len(seen), len(want), dup, stray)

	st := v.n.State()
	ce := contract.NewExecutor(contract.NewRegistry())
	bad := 0
	for addr, bal := range tokens {
		out, err := ce.Query(st, acc.token, cryptoutil.ZeroAddress, "balanceOf", addr.Hex())
		if err != nil || string(out) != strconv.FormatUint(bal, 10) {
			bad++
		}
	}
	r.gate("token-balances", bad == 0 && len(tokens) > 1, "%d of %d holders off", bad, len(tokens))
	return nil
}

// tokenEffect applies one committed transaction to the expected token
// ledger.
func tokenEffect(tokens map[cryptoutil.Address]uint64, acc *accounts, tx *types.Transaction) error {
	if tx.Kind != types.TxInvoke || tx.To != acc.token {
		return nil
	}
	call, err := contract.DecodeCall(tx.Data)
	if err != nil {
		return err
	}
	switch call.Fn {
	case "init":
		tokens[tx.From] = tokenSupply
	case "transfer":
		to, err := cryptoutil.AddressFromHex(call.Args[0])
		if err != nil {
			return err
		}
		amount, err := strconv.ParseUint(call.Args[1], 10, 64)
		if err != nil {
			return err
		}
		tokens[tx.From] -= amount
		tokens[to] += amount
	}
	return nil
}

// liveHeapMB is the live heap after a forced collection, with the given
// peers still reachable.
func liveHeapMB(peers ...*peer) float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(peers)
	return float64(ms.HeapAlloc) / (1 << 20)
}
