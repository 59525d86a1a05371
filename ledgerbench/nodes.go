package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dcsledger/internal/consensus/forkchoice"
	"dcsledger/internal/consensus/pow"
	"dcsledger/internal/contract"
	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/incentive"
	"dcsledger/internal/metrics"
	"dcsledger/internal/node"
	"dcsledger/internal/nodestore"
	"dcsledger/internal/obs"
	"dcsledger/internal/p2p"
	"dcsledger/internal/simclock"
	"dcsledger/internal/types"
	"dcsledger/internal/wal"
)

// Node wiring, as cmd/ledgerd wires a peer by default: native contract
// executor, parallel execution at GOMAXPROCS, default state retention,
// an instrumented longest-chain rule, and the daemon's reward schedule.
// The PoW engine is seeded and pinned at MinDifficulty (no retargeting)
// so the seal costs the same on every block and every run.

var rewards = incentive.Schedule{InitialReward: 50, HalvingInterval: 210_000}

const networkName = "ledgerbench"

func newEngine(seed int64) *pow.Engine {
	return pow.New(pow.Config{
		TargetInterval:    10 * time.Second,
		InitialDifficulty: pow.MinDifficulty,
		RetargetWindow:    1 << 32,
		HashRate:          float64(pow.MinDifficulty) / 10,
	}, rand.New(rand.NewSource(seed)))
}

// durability is a validator's on-disk configuration: the WAL and the
// node store (-state-backend=disk) under one data directory.
type durability struct {
	fsync wal.FsyncPolicy
	sync  nodestore.SyncPolicy
}

// peer is one node under test plus what it owns.
type peer struct {
	n   *node.Node
	cfg peerConfig
	reg *metrics.Registry
	fc  *forkchoice.Instrumented
	ds  *wal.DurableStore
	ns  *nodestore.Store
	dir string

	walOpen time.Duration // how long wal.OpenStore took
	tracer  *obs.Tracer   // traced runs only
}

type peerConfig struct {
	id      string
	key     *cryptoutil.KeyPair
	alloc   map[cryptoutil.Address]uint64
	clock   simclock.Clock
	engine  *pow.Engine
	mine    bool
	maxTxs  int
	durable *durability // nil: memory only
	dir     string
}

// openPeer builds a node. A durable peer opens (or reopens) its data
// directory and recovers whatever it journaled; rec is that recovery.
func openPeer(c peerConfig) (*peer, *wal.Recovery, error) {
	p := &peer{cfg: c, reg: metrics.NewRegistry(), dir: c.dir}
	var rec *wal.Recovery
	if c.durable != nil {
		var err error
		start := time.Now()
		p.ds, rec, err = wal.OpenStore(c.dir, wal.StoreOptions{
			Fsync:           c.durable.fsync,
			CheckpointEvery: wal.DefaultCheckpointEvery,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("open wal: %w", err)
		}
		p.walOpen = time.Since(start)
		p.ns, err = nodestore.Open(filepath.Join(c.dir, "state"), nodestore.Options{
			Sync:       c.durable.sync,
			CacheBytes: nodestore.DefaultCacheBytes,
			Metrics:    p.reg,
		})
		if err != nil {
			p.ds.Close()
			return nil, nil, fmt.Errorf("open node store: %w", err)
		}
	}
	p.fc = &forkchoice.Instrumented{
		Inner: forkchoice.LongestChain{},
		Hist:  p.reg.Histogram("forkchoice_choose_seconds"),
		Peer:  c.id,
	}
	cfg := node.Config{
		ID:          p2p.NodeID(c.id),
		Key:         c.key,
		Engine:      c.engine,
		ForkChoice:  p.fc,
		Genesis:     node.NewGenesis(networkName),
		Alloc:       c.alloc,
		Executor:    contract.NewExecutor(contract.NewRegistry()),
		Rewards:     rewards,
		Clock:       c.clock,
		Mine:        c.mine,
		MaxBlockTxs: c.maxTxs,
		ExecWorkers: runtime.GOMAXPROCS(0),
	}
	if p.ds != nil {
		cfg.Durable = p.ds
		cfg.DiskState = p.ns
	}
	n, err := node.New(cfg)
	if err != nil {
		p.close()
		return nil, nil, err
	}
	p.n = n
	n.RegisterMetrics(p.reg)
	return p, rec, nil
}

// close stops the node and closes its stores, reporting the first
// error (a failed close of a durable store loses data).
func (p *peer) close() error {
	if p.n != nil {
		p.n.Stop()
	}
	var first error
	if p.ns != nil {
		if err := p.ns.Close(); err != nil {
			first = err
		}
	}
	if p.ds != nil {
		if err := p.ds.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// discard closes the peer and removes its data directory.
func (p *peer) discard() error {
	err := p.close()
	if p.dir != "" {
		if rerr := os.RemoveAll(p.dir); rerr != nil && err == nil {
			err = rerr
		}
	}
	return err
}

// deliver hands a block to a node the way gossip does: as bytes,
// decoded into fresh transaction objects, so every signature is
// checked by the receiver. It returns the decode-plus-HandleBlock time.
func deliver(n *node.Node, raw []byte) (time.Duration, error) {
	start := time.Now()
	b, err := types.DecodeBlock(raw)
	if err != nil {
		return 0, fmt.Errorf("decode block: %w", err)
	}
	if err := n.HandleBlock(b); err != nil {
		return 0, fmt.Errorf("handle block %d: %w", b.Header.Height, err)
	}
	return time.Since(start), nil
}

// submit hands a transaction to a node the way the HTTP API does:
// decode, then SubmitTx. It returns the call's time.
func submit(n *node.Node, raw []byte) (time.Duration, error) {
	start := time.Now()
	tx, err := types.DecodeTransaction(raw)
	if err != nil {
		return 0, fmt.Errorf("decode tx: %w", err)
	}
	if err := n.SubmitTx(tx); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}
