package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/mpt"
	"dcsledger/internal/obs"
)

// measures holds every latency series a run records. Units are in the
// names' suffixes.
type measures struct {
	setupS     series
	proposeMs  series
	connectMs  series
	submitUs   series
	readUs     series
	proofUs    series
	scrapeMs   series
	lateMs     series // client lateness: start minus due time
	scrapeSvc  series // scrape service time (start to end), ms
	idleReadUs series // read service time on an idle node, us
	selectMs   series // trace: proposer pool selection
	backlog    series // trace: proposer pool size before proposing

	// Per connect, the longest service time of a read that started
	// while it ran.
	readInConnectMs series

	// Per timed block, in connect order: the live connect time (ms) and
	// whether the nodes were traced while it connected. A traced run
	// toggles tracing block by block, so both halves see the same chain.
	perBlock    []float64
	tracedBlock []bool
}

// latencies reports the end-to-end times m holds. Tails are p90: on
// chain-large a p99 lands on whichever operations a collection of the
// large heap happened to overlap, and moves by more than its bound from
// run to run.
func (r *run) latencies(m *measures) {
	r.setE2E("setup_s", median(m.setupS.values()), "s")
	r.tail("propose_p50_ms", &m.proposeMs, 0.5, "ms")
	r.tail("connect_p50_ms", &m.connectMs, 0.5, "ms")
	r.tail("submit_p50_us", &m.submitUs, 0.5, "us")
	r.tail("submit_p90_us", &m.submitUs, 0.9, "us")
	r.tail("read_p50_us", &m.readUs, 0.5, "us")
	r.tail("read_p90_us", &m.readUs, 0.9, "us")
	r.tail("proof_p50_us", &m.proofUs, 0.5, "us")
	r.tail("proof_p90_us", &m.proofUs, 0.9, "us")
	r.tail("scrape_p90_ms", &m.scrapeMs, 0.9, "ms")
	r.tail("read_in_connect_p50_ms", &m.readInConnectMs, 0.5, "ms")
}

// connected records one timed block's live connect.
func (m *measures) connected(d time.Duration, traced bool) {
	m.connectMs.addDur(d, time.Millisecond)
	m.perBlock = append(m.perBlock, float64(d)/1e6)
	m.tracedBlock = append(m.tracedBlock, traced)
}

// roots is the set of header state roots a proof may be checked
// against: every block the workload produced, plus genesis.
type roots struct {
	mu sync.RWMutex
	m  map[cryptoutil.Hash]bool
}

func (k *roots) add(h cryptoutil.Hash) {
	k.mu.Lock()
	if k.m == nil {
		k.m = map[cryptoutil.Hash]bool{}
	}
	k.m[h] = true
	k.mu.Unlock()
}

func (k *roots) has(h cryptoutil.Hash) bool {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return k.m[h]
}

// read is one balance query: Balance and the head state's nonce, as the
// daemon's GET /balance and GET /nonce serve them.
func read(v *peer, addr cryptoutil.Address) error {
	if v.n.Balance(addr) == 0 {
		return fmt.Errorf("read: funded account %s has zero balance", addr.Short())
	}
	_ = v.n.State().Nonce(addr)
	return nil
}

// proof fetches an account proof and checks it with mpt.VerifyProof
// against a known header root.
func proof(v *peer, addr cryptoutil.Address, known *roots) error {
	p, err := v.n.AccountProof(addr)
	if err != nil {
		return fmt.Errorf("proof: %w", err)
	}
	if !known.has(p.Root) {
		return fmt.Errorf("proof: root %s is no known header root", p.Root.Short())
	}
	leaf, ok, err := mpt.VerifyProof(p.Root, addr[:], p.Proof)
	if err != nil {
		return fmt.Errorf("proof: %w", err)
	}
	if !ok || !bytes.Equal(leaf, p.Leaf) {
		return fmt.Errorf("proof: funded account %s not proven", addr.Short())
	}
	return nil
}

// scrape renders the node's metrics registry, as GET /metrics does.
func scrape(v *peer) error {
	n, err := v.reg.WriteTo(io.Discard)
	if err != nil {
		return fmt.Errorf("scrape: %w", err)
	}
	if n == 0 {
		return errors.New("scrape: empty")
	}
	return nil
}

// spanLog keeps the traced run's spans in memory — the benchmark's own,
// around each call into a layer, and the ones the nodes emit — and
// writes them once at exit.
type spanLog struct {
	mu    sync.Mutex
	spans []obs.Span
	nodes []*obs.Tracer
}

func newSpanLog() *spanLog { return &spanLog{} }

// setTracing attaches (on) or detaches each peer's tracer, creating
// it on first use; its spans join the log. Call from the goroutine that
// delivers blocks: the fork-choice rule's tracer is read only there.
func (l *spanLog) setTracing(on bool, peers ...*peer) {
	for _, p := range peers {
		var t *obs.Tracer
		if on {
			if p.tracer == nil {
				p.tracer = obs.NewTracer(1 << 16)
				p.tracer.SetRun(p.cfg.id)
				l.mu.Lock()
				l.nodes = append(l.nodes, p.tracer)
				l.mu.Unlock()
			}
			t = p.tracer
		}
		p.n.SetTracer(t)
		p.fc.Tracer = t
	}
}

// timed runs fn, records its span under stage, and returns its time.
func (l *spanLog) timed(stage string, height uint64, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	d := time.Since(start)
	l.mu.Lock()
	l.spans = append(l.spans, obs.Span{Run: "ledgerbench", Stage: stage, Start: start.UnixNano(), Dur: int64(d), Height: height})
	l.mu.Unlock()
	return d, err
}

// nodeSpans returns every span the nodes emitted for stage.
func (l *spanLog) nodeSpans(stage string) []obs.Span {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []obs.Span
	for _, t := range l.nodes {
		for _, s := range t.Snapshot() {
			if s.Stage == stage {
				out = append(out, s)
			}
		}
	}
	return out
}

func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	nodes := l.nodes
	l.mu.Unlock()
	for _, t := range nodes {
		if err := t.WriteJSONL(f); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
