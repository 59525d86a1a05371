package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/simclock"
	"dcsledger/internal/types"
)

// serve-durable: one validator with the WAL and the node store at
// fsync=always. A feeder goroutine connects pre-produced blocks on a
// fixed wall schedule while one client goroutine runs an open loop of
// submits, reads, proofs and scrapes against the same node.

type opKind int

const (
	opSubmit opKind = iota
	opRead
	opProof
	opScrape
)

// op is one scheduled client operation; due is its offset from the
// start of the window.
type op struct {
	due  time.Duration
	kind opKind
	raw  []byte
	addr cryptoutil.Address
}

// done is one finished client operation.
type done struct {
	kind              opKind
	start, end        time.Time
	latency, lateness time.Duration
}

func runServe(r *run) error {
	w := r.w
	m := &measures{}
	acc := newAccounts(r.seed, w.accounts)
	gen := newTxGen(acc)
	// Block j of the window is fed at (j+2) intervals, its transactions
	// arrive during interval j: one interval of slack between a
	// transaction's arrival and its block.
	k := int(r.window()/w.interval) - 1
	if k < 2 {
		return fmt.Errorf("window %s too short for interval %s", r.window(), w.interval)
	}
	batches := make([][][]byte, w.warm+k)
	var err error
	if batches[0], err = gen.setup(); err != nil {
		return err
	}
	for i := 1; i < len(batches); i++ {
		if batches[i], err = gen.batch(w.blockTxs); err != nil {
			return err
		}
	}
	var known roots
	blocks, err := produce(r, m, acc, batches, &known)
	if err != nil {
		return err
	}

	// Set-up: open both stores and boot the validator, w.setups times.
	alloc := acc.alloc()
	valKey := cryptoutil.KeyFromSeed([]byte(fmt.Sprintf("ledgerbench/%d/validator", r.seed)))
	var val *peer
	for i := 0; i < w.setups; i++ {
		runtime.GC()
		start := time.Now()
		v, err := openValidator(r, valKey, alloc, fmt.Sprintf("validator-%d", i))
		if err != nil {
			return err
		}
		m.setupS.add(time.Since(start).Seconds())
		if i < w.setups-1 {
			if err := v.discard(); err != nil {
				return err
			}
			continue
		}
		val = v
	}
	root, ok := val.n.DiskStateRoot()
	if !ok {
		return errors.New("validator has no genesis state root on disk")
	}
	known.add(root)

	before := snapStores(val)
	for _, raw := range blocks[:w.warm] {
		if _, err := deliver(val.n, raw); r.op(err) != nil {
			return err
		}
	}
	if err := fingerprint(r, val, blocks[:w.warm], before); err != nil {
		return err
	}

	timed := blocks[w.warm:]
	ops := schedule(r, acc, batches[w.warm:])
	var submitted [][]byte
	for _, o := range ops {
		if o.kind == opSubmit {
			submitted = append(submitted, o.raw)
		}
	}
	runtime.GC()
	snapA := snapStores(val)
	var (
		wg       sync.WaitGroup
		connects [][2]time.Time
		finished []done
		lastEnd  time.Time
		feedErr  error
		t0       = time.Now()
	)
	wg.Add(2)
	go func() { // feeder
		defer wg.Done()
		for j, raw := range timed {
			sleepUntil(t0.Add(time.Duration(j+2) * w.interval))
			traced := r.trace && j%2 == 1
			if r.trace {
				r.spans.setTracing(traced, val)
			}
			start := time.Now()
			d, err := deliver(val.n, raw)
			lastEnd = time.Now()
			if r.op(err) != nil {
				feedErr = err
				continue
			}
			connects = append(connects, [2]time.Time{start, lastEnd})
			m.connected(d, traced)
		}
	}()
	go func() { // client
		defer wg.Done()
		finished = runClient(r, val, ops, t0, &known)
	}()
	wg.Wait()
	snapB := snapStores(val)
	elapsed := lastEnd.Sub(t0)
	if feedErr != nil {
		fmt.Fprintf(r.out, "feeder: %v\n", feedErr)
	}

	last, err := types.DecodeBlock(blocks[len(blocks)-1])
	if err != nil {
		return err
	}
	r.gate("validator-head", val.n.Chain().Head() == last.Hash(),
		"validator at %d of %d blocks", val.n.Chain().Height(), len(blocks))
	r.gate("pool-drained", val.n.Pool().Len() == 0, "%d left pooled", val.n.Pool().Len())
	if err := commitGates(r, val, acc, submitted, uint64(w.warm)); err != nil {
		return err
	}
	diskGates(r, val)

	m.record(finished, connects)
	committed := 0
	for _, raw := range timed {
		committed += txCount(raw)
	}
	r.setE2E("tps", float64(committed)/elapsed.Seconds(), "1/s")
	r.latencies(m)

	r.setE2E("heap_mb", liveHeapMB(val), "MB")

	if r.trace {
		r.spans.setTracing(false, val)
		if err := traceReport(r, m, val, timed); err != nil {
			return err
		}
		storeLayers(r, snapA, snapB, len(timed))
	}
	nv, err := recoverValidator(r, val)
	if err != nil {
		return err
	}
	diskGates(r, nv)
	return nv.discard()
}

// produce pre-produces the workload's blocks with a mining proposer on a
// simulated clock, one batch per block, timing each proposal.
func produce(r *run, m *measures, acc *accounts, batches [][][]byte, known *roots) ([][]byte, error) {
	sim := simclock.NewSimulator()
	prop, _, err := openPeer(peerConfig{
		id: "proposer", key: acc.miner, alloc: acc.alloc(), clock: sim,
		engine: newEngine(r.seed), mine: true, maxTxs: r.w.blockTxs,
	})
	if err != nil {
		return nil, err
	}
	defer prop.discard()
	if r.trace {
		r.spans.setTracing(true, prop)
	}
	prop.n.Start()
	blocks := make([][]byte, 0, len(batches))
	for _, batch := range batches {
		for _, raw := range batch {
			if _, err := submit(prop.n, raw); err != nil {
				return nil, fmt.Errorf("pre-production: %w", err)
			}
		}
		pool := prop.n.Pool()
		if r.trace {
			m.backlog.add(float64(pool.Len()))
			d, _ := r.spans.timed("txpool.select", 0, func() error {
				pool.Select(r.w.blockTxs, 0)
				return nil
			})
			m.selectMs.addDur(d, time.Millisecond)
		}
		h0 := prop.n.Chain().Height()
		var stepDur time.Duration
		for prop.n.Chain().Height() == h0 {
			start := time.Now()
			if !sim.Step() {
				return nil, errors.New("proposer stopped mining")
			}
			stepDur = time.Since(start)
		}
		m.proposeMs.addDur(stepDur, time.Millisecond)
		blk := prop.n.Chain().HeadBlock()
		if len(blk.Txs)-1 != len(batch) {
			return nil, fmt.Errorf("pre-production: block %d holds %d of %d transactions", blk.Header.Height, len(blk.Txs)-1, len(batch))
		}
		known.add(blk.Header.StateRoot)
		blocks = append(blocks, blk.Encode())
	}
	return blocks, nil
}

// schedule lays out the client's open loop over the window: each timed
// block's transactions spread evenly over their arrival interval, reads
// and proofs as Poisson arrivals at their rates, scrapes at a fixed
// cadence. It is a pure function of the seed and the inputs.
func schedule(r *run, acc *accounts, batches [][][]byte) []op {
	w := r.w
	rng := rand.New(rand.NewSource(r.seed ^ 0x5e7e))
	span := time.Duration(len(batches)) * w.interval
	var ops []op
	for j, batch := range batches {
		step := w.interval / time.Duration(len(batch))
		for i, raw := range batch {
			ops = append(ops, op{due: time.Duration(j)*w.interval + time.Duration(i)*step + step/2, kind: opSubmit, raw: raw})
		}
	}
	poisson := func(rate float64, kind opKind) {
		for t := time.Duration(0); ; {
			t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
			if t >= span {
				return
			}
			ops = append(ops, op{due: t, kind: kind, addr: acc.addrs[rng.Intn(len(acc.addrs))]})
		}
	}
	poisson(w.readRate, opRead)
	poisson(w.proofRate, opProof)
	for t := w.scrapeEvery / 2; t < span; t += w.scrapeEvery {
		ops = append(ops, op{due: t, kind: opScrape})
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
	return ops
}

// runClient executes the schedule. An operation's latency runs from its
// due time, so a stall inside the node also counts against every
// operation queued behind it. An operation that fell due while the
// client slept (the timer wakes it up to a millisecond late) is timed
// from the wake-up instead: that delay is the generator's, and is
// reported as lateness, not as latency.
func runClient(r *run, v *peer, ops []op, t0 time.Time, known *roots) []done {
	out := make([]done, 0, len(ops))
	var woke time.Time
	for _, o := range ops {
		due := t0.Add(o.due)
		if time.Until(due) > 0 {
			sleepPrecise(due)
			woke = time.Now()
		}
		from := due
		if due.Before(woke) {
			from = woke
		}
		start := time.Now()
		var err error
		switch o.kind {
		case opSubmit:
			_, err = submit(v.n, o.raw)
		case opRead:
			err = read(v, o.addr)
		case opProof:
			err = proof(v, o.addr, known)
		case opScrape:
			err = scrape(v)
		}
		end := time.Now()
		if r.op(err) != nil {
			continue
		}
		out = append(out, done{kind: o.kind, start: start, end: end, latency: end.Sub(from), lateness: start.Sub(due)})
	}
	return out
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// sleepPrecise is sleepUntil for the client's short waits. The runtime
// timer wakes a sleeping goroutine up to a millisecond late on Linux; a
// nanosleep system call wakes within about a tenth of that, which keeps
// operations due close together from bunching up behind the client's
// own oversleep.
func sleepPrecise(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// record files finished client operations into the measures. For each
// connect (connects, sorted by start) the longest read that started
// during it gives the wait behind a connect; a read that started outside
// every connect gives the idle service time.
func (m *measures) record(finished []done, connects [][2]time.Time) {
	longest := make([]time.Duration, len(connects))
	for _, d := range finished {
		m.lateMs.addDur(d.lateness, time.Millisecond)
		switch d.kind {
		case opSubmit:
			m.submitUs.addDur(d.latency, time.Microsecond)
		case opRead:
			m.readUs.addDur(d.latency, time.Microsecond)
			if i := during(connects, d.start); i >= 0 {
				longest[i] = max(longest[i], d.end.Sub(d.start))
			} else {
				m.idleReadUs.addDur(d.end.Sub(d.start), time.Microsecond)
			}
		case opProof:
			m.proofUs.addDur(d.latency, time.Microsecond)
		case opScrape:
			m.scrapeMs.addDur(d.latency, time.Millisecond)
			m.scrapeSvc.addDur(d.end.Sub(d.start), time.Millisecond)
		}
	}
	for _, d := range longest {
		if d > 0 {
			m.readInConnectMs.addDur(d, time.Millisecond)
		}
	}
}

// during returns the index of the interval (sorted by start) that t
// falls inside, or -1.
func during(intervals [][2]time.Time, t time.Time) int {
	i := sort.Search(len(intervals), func(i int) bool { return intervals[i][0].After(t) })
	if i > 0 && !t.After(intervals[i-1][1]) {
		return i - 1
	}
	return -1
}
