package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/simclock"
	"dcsledger/internal/types"
)

// chain-small and chain-large: a closed loop. Each round submits one
// batch to a mining proposer on a simulated clock, steps the clock until
// the proposer seals a block, and hands the block's bytes to a
// validator, while the second goroutine reads balances from the
// validator until the connect ends. Between rounds the client issues
// reads, proofs and scrapes on the idle validator.

type chainLoop struct {
	r    *run
	m    *measures
	acc  *accounts
	sim  *simclock.Simulator
	prop *peer
	val  *peer

	known     roots
	blocks    [][]byte // encoded blocks in height order (index = height-1)
	submitted [][]byte // every transaction the proposer accepted
	rng       *rand.Rand

	traced bool // traced run: this round's nodes are traced
	// The second goroutine reads while a timed connect runs: each
	// connect sends it a channel that is closed when the connect ends,
	// and it answers with the longest read it saw.
	watch   chan chan struct{}
	longest chan time.Duration
}

func runChain(r *run) error {
	w := r.w
	acc := newAccounts(r.seed, w.accounts)
	gen := newTxGen(acc)
	first, err := gen.setup()
	if err != nil {
		return err
	}
	// Block 1 carries the token bootstrap plus the initial backlog; each
	// later round adds one batch, so the backlog stays steady.
	for i := 0; i < backlog; i++ {
		b, err := gen.batch(w.blockTxs)
		if err != nil {
			return err
		}
		first = append(first, b...)
	}
	warm := [][][]byte{first}
	for len(warm) < w.warm {
		b, err := gen.batch(w.blockTxs)
		if err != nil {
			return err
		}
		warm = append(warm, b)
	}

	c := &chainLoop{r: r, m: &measures{}, acc: acc, rng: rand.New(rand.NewSource(r.seed ^ 0xc11e47))}
	if err := c.setup(); err != nil {
		return err
	}
	before := snapStores(c.val)
	warmStart := time.Now()
	for _, b := range warm {
		if err := c.round(b, false); err != nil {
			return err
		}
	}
	pace := time.Since(warmStart) / time.Duration(len(warm))
	if err := fingerprint(r, c.val, c.blocks, before); err != nil {
		return err
	}
	// Restart the validator: the warm-up journal is the same for a seed,
	// so recover_s measures the same work on every run.
	if c.val, err = recoverValidator(r, c.val); err != nil {
		return err
	}

	// The timed loop's inputs, drawn before timing starts, with a
	// margin over the warm-up pace.
	need := int(math.Ceil(r.seconds/pace.Seconds()*1.5)) + 4
	batches := make([][][]byte, 0, need)
	for i := 0; i < need; i++ {
		b, err := gen.batch(w.blockTxs)
		if err != nil {
			return err
		}
		batches = append(batches, b)
	}
	c.watch, c.longest = make(chan chan struct{}), make(chan time.Duration)
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		for end := range c.watch {
			c.longest <- c.readUntil(end)
		}
	}()
	defer func() {
		close(c.watch)
		<-exited
	}()

	// The idle client operations are spread over the timed rounds so
	// their samples span the run, and their time is left out of tps.
	perRound := int(math.Ceil(idleOps / math.Ceil(r.seconds/pace.Seconds())))
	var client time.Duration
	issued := 0
	firstTimed := len(c.blocks)
	snapA := snapStores(c.val)
	start := time.Now()
	for i, b := range batches {
		if time.Since(start) >= r.window() {
			break
		}
		if r.trace {
			c.traced = i%2 == 1
			r.spans.setTracing(c.traced, c.prop, c.val)
		}
		if err := c.round(b, true); err != nil {
			return err
		}
		t := time.Now()
		c.idleOps(issued, perRound)
		issued += perRound
		client += time.Since(t)
	}
	elapsed := time.Since(start)
	if elapsed < r.window() {
		fmt.Fprintf(r.out, "note: inputs ran out after %s of %s\n", elapsed, r.window())
	}
	snapB := snapStores(c.val)
	timed := c.blocks[firstTimed:]
	committed := 0
	for _, raw := range timed {
		committed += txCount(raw)
	}
	if r.trace {
		r.spans.setTracing(false, c.prop, c.val)
	}

	// Drain the backlog, untimed, so every submitted transaction can be
	// checked.
	for i := 0; c.prop.n.Pool().Len() > 0 && i < 4*(backlog+2); i++ {
		if err := c.round(nil, false); err != nil {
			return err
		}
	}
	r.gate("validator-head", c.val.n.Chain().Head() == c.prop.n.Chain().Head(),
		"validator at %d, proposer at %d", c.val.n.Chain().Height(), c.prop.n.Chain().Height())
	r.gate("pool-drained", c.prop.n.Pool().Len() == 0, "%d left pooled", c.prop.n.Pool().Len())
	if err := commitGates(r, c.val, acc, c.submitted, 0); err != nil {
		return err
	}
	diskGates(r, c.val)

	m := c.m
	r.setE2E("tps", float64(committed)/(elapsed-client).Seconds(), "1/s")
	r.latencies(m)

	// The benchmark's own copies of the inputs are not the nodes' heap.
	c.blocks, c.submitted = nil, nil
	r.setE2E("heap_mb", liveHeapMB(c.prop, c.val), "MB")

	if r.trace {
		if err := traceReport(r, m, c.val, timed); err != nil {
			return err
		}
		storeLayers(r, snapA, snapB, len(timed))
	}
	return errors.Join(c.prop.discard(), c.val.discard())
}

// setup builds the proposer and the validator w.setups times, timing
// each until both are ready to serve, and keeps the last pair.
func (c *chainLoop) setup() error {
	r := c.r
	alloc := c.acc.alloc()
	valKey := cryptoutil.KeyFromSeed([]byte(fmt.Sprintf("ledgerbench/%d/validator", r.seed)))
	for i := 0; i < r.w.setups; i++ {
		runtime.GC()
		start := time.Now()
		sim := simclock.NewSimulator()
		prop, _, err := openPeer(peerConfig{
			id: "proposer", key: c.acc.miner, alloc: alloc, clock: sim,
			engine: newEngine(r.seed), mine: true, maxTxs: r.w.blockTxs,
		})
		if err != nil {
			return err
		}
		val, err := openValidator(r, valKey, alloc, fmt.Sprintf("validator-%d", i))
		if err != nil {
			return errors.Join(err, prop.discard())
		}
		prop.n.Start()
		c.m.setupS.add(time.Since(start).Seconds())
		if i < r.w.setups-1 {
			if err := errors.Join(prop.discard(), val.discard()); err != nil {
				return err
			}
			continue
		}
		c.sim, c.prop, c.val = sim, prop, val
	}
	root, ok := c.val.n.DiskStateRoot()
	if !ok {
		return errors.New("validator has no genesis state root on disk")
	}
	c.known.add(root)
	return nil
}

// round submits a batch, produces one block and delivers it. A timed
// round records its submits, its proposal and its connect.
func (c *chainLoop) round(batch [][]byte, timed bool) error {
	r, m := c.r, c.m
	for _, raw := range batch {
		d, err := submit(c.prop.n, raw)
		if r.op(err) != nil {
			continue
		}
		c.submitted = append(c.submitted, raw)
		if timed {
			m.submitUs.addDur(d, time.Microsecond)
		}
	}
	if timed && r.trace {
		pool := c.prop.n.Pool()
		m.backlog.add(float64(pool.Len()))
		d, _ := r.spans.timed("txpool.select", 0, func() error {
			pool.Select(r.w.blockTxs, 0)
			return nil
		})
		m.selectMs.addDur(d, time.Millisecond)
	}

	h0 := c.prop.n.Chain().Height()
	var propose time.Duration
	for c.prop.n.Chain().Height() == h0 {
		start := time.Now()
		if !c.sim.Step() {
			return errors.New("proposer stopped mining")
		}
		propose = time.Since(start)
	}
	blk := c.prop.n.Chain().HeadBlock()
	raw := blk.Encode()
	c.blocks = append(c.blocks, raw)
	c.known.add(blk.Header.StateRoot)

	if !timed {
		_, err := deliver(c.val.n, raw)
		r.op(err)
		return nil
	}
	// deliver, with the second goroutine reading while HandleBlock runs.
	start := time.Now()
	b, err := types.DecodeBlock(raw)
	if err != nil {
		r.op(fmt.Errorf("decode block: %w", err))
		return nil
	}
	end := make(chan struct{})
	c.watch <- end
	err = c.val.n.HandleBlock(b)
	connect := time.Since(start)
	close(end)
	longest := <-c.longest
	if r.op(err) == nil {
		m.proposeMs.addDur(propose, time.Millisecond)
		m.connected(connect, c.traced)
		m.readInConnectMs.addDur(longest, time.Millisecond)
	}
	return nil
}

// readUntil reads balances from the validator back to back until end
// is closed, and returns the longest read. A read that arrives while
// the connect holds the node waits for it, so the longest read is the
// wait a client sees behind a connect. Runs on the second goroutine.
func (c *chainLoop) readUntil(end <-chan struct{}) time.Duration {
	var longest time.Duration
	for i := 0; ; i++ {
		select {
		case <-end:
			return longest
		default:
		}
		start := time.Now()
		if c.r.op(read(c.val, c.acc.addrs[i%len(c.acc.addrs)])) == nil {
			longest = max(longest, time.Since(start))
		}
	}
}

// idleOps runs n client operations back to back on the idle
// validator, continuing the turn of a read, a proof and a scrape from
// operation from. Each is due when the previous one ends, so latency
// and service time coincide.
func (c *chainLoop) idleOps(from, n int) {
	var finished []done
	due := time.Now()
	for i := from; i < from+n; i++ {
		var (
			kind = []opKind{opRead, opProof, opScrape}[i%3]
			a    = c.acc.addrs[c.rng.Intn(len(c.acc.addrs))]
			err  error
		)
		start := time.Now()
		switch kind {
		case opRead:
			err = read(c.val, a)
		case opProof:
			err = proof(c.val, a, &c.known)
		case opScrape:
			err = scrape(c.val)
		}
		end := time.Now()
		if c.r.op(err) == nil {
			finished = append(finished, done{kind: kind, start: start, end: end, latency: end.Sub(start), lateness: start.Sub(due)})
		}
		due = end
	}
	c.m.record(finished, nil)
}

// txCount is the number of user transactions in an encoded block.
func txCount(raw []byte) int {
	b, err := types.DecodeBlock(raw)
	if err != nil {
		return 0
	}
	return len(b.Txs) - 1
}
