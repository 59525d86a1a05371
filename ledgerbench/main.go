// Command ledgerbench is the repository's end-to-end benchmark. It drives
// internal/node in-process through its public API on one of three
// workloads, checks the ledger's outputs, and prints one JSON result
// line. See README.md for the workloads and metrics.
//
//	go run . --workload chain-small --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"dcsledger/internal/nodestore"
	"dcsledger/internal/wal"
)

// workload is one input configuration.
type workload struct {
	name     string
	accounts int // funded accounts
	blockTxs int // transactions per block
	warm     int // blocks connected before timing; the fingerprint covers them
	setups   int // set-up repetitions; setup_s is their median
	restarts int // validator restarts; recover_s is their median

	// Validator durability. chain-* validators run with cmd/ledgerd's
	// -data-dir defaults (fsync=interval); serve-durable at fsync=always.
	durable durability

	// serve-durable: the feeder's block interval and the client's
	// open-loop rates (operations per second).
	interval            time.Duration
	readRate, proofRate float64
	scrapeEvery         time.Duration
}

const (
	// senders is how many funded accounts hold keys and send.
	senders = 512
	// backlog is how many blocks of transactions chain-* keeps pooled
	// at the proposer ahead of the block it seals.
	backlog = 2
	// idleOps is about how many client operations chain-* issues on
	// the idle validator over a run: reads, proofs and scrapes in turn,
	// a thousand of each.
	idleOps = 3000
)

var workloads = map[string]workload{
	"chain-small": {
		name: "chain-small", accounts: 1_000, blockTxs: 256,
		warm: 8, setups: 50, restarts: 7,
		durable: durability{fsync: wal.FsyncInterval, sync: nodestore.SyncInterval},
	},
	"chain-large": {
		name: "chain-large", accounts: 100_000, blockTxs: 256,
		warm: 3, setups: 5, restarts: 5,
		durable: durability{fsync: wal.FsyncInterval, sync: nodestore.SyncInterval},
	},
	"serve-durable": {
		name: "serve-durable", accounts: 20_000, blockTxs: 128,
		warm: 66, setups: 5, restarts: 3,
		durable:  durability{fsync: wal.FsyncAlways, sync: nodestore.SyncAlways},
		interval: time.Second, readRate: 300, proofRate: 150,
		scrapeEvery: 10 * time.Millisecond,
	},
}

// The metrics a run reports: end-to-end with --trace 0, per-layer with
// --trace 1. Every workload reports every name; BENCHMARK.json lists the
// same names.
var (
	endToEndMetrics = []string{
		"setup_s", "tps", "propose_p50_ms", "connect_p50_ms",
		"submit_p50_us", "submit_p90_us", "read_p50_us", "read_p90_us",
		"proof_p50_us", "proof_p90_us", "scrape_p90_ms", "read_in_connect_p50_ms",
		"recover_s", "heap_mb", "ok_ratio",
	}
	perLayerMetrics = []string{
		"types.verify_ms", "types.decode_ms", "types.txroot_ms", "types.block_bytes",
		"txpool.add_us", "txpool.select_ms", "txpool.backlog",
		"state.commit_ms", "state.dirty_accounts",
		"exec.apply_ms", "exec.merge_ratio", "exec.replayed_txs", "contract.invoke_us",
		"consensus.seal_ms", "consensus.verify_seal_us", "consensus.choose_us",
		"store.add_us", "store.sethead_us",
		"wal.log_block_ms", "wal.log_head_ms", "wal.checkpoint_ms", "wal.bytes_per_block",
		"wal.fsyncs_per_block", "wal.open_ms",
		"nodestore.mirror_ms", "nodestore.bytes_per_block", "nodestore.syncs_per_block",
		"nodestore.cache_hit_ratio",
		"node.recover_ms", "node.lock_wait_us", "node.connect_self_ms",
		"metrics.write_ms", "client.late_p99_ms",
		"trace.overhead_pct", "trace.reconcile_gap",
	}
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is one invocation's state: configuration, the operation tally,
// the correctness gates, and the metrics gathered so far.
type run struct {
	w       workload
	seed    int64
	seconds float64
	trace   bool
	root    string // the --work directory: traces and fingerprints
	work    string // this run's scratch directory, removed at exit
	out     io.Writer

	attempted, failed atomic.Int64
	gates             []string

	e2e, layer map[string]metric
	spans      *spanLog
}

func (r *run) window() time.Duration {
	return time.Duration(r.seconds * float64(time.Second))
}

// op counts one operation and its outcome.
func (r *run) op(err error) error {
	r.attempted.Add(1)
	if err != nil {
		if r.failed.Add(1) <= 5 {
			fmt.Fprintf(r.out, "failed operation: %v\n", err)
		}
	}
	return err
}

// gate records a correctness check.
func (r *run) gate(name string, ok bool, detail string, args ...any) {
	status := "ok"
	if !ok {
		status = "FAIL"
		r.gates = append(r.gates, name)
	}
	fmt.Fprintf(r.out, "gate %-26s %-4s %s\n", name, status, fmt.Sprintf(detail, args...))
}

func (r *run) setE2E(name string, v float64, unit string)   { r.e2e[name] = metric{v, unit} }
func (r *run) setLayer(name string, v float64, unit string) { r.layer[name] = metric{v, unit} }

// tail reports a percentile of s as an end-to-end metric, printing its
// sample count and whether at least ten samples lie beyond it.
func (r *run) tail(name string, s *series, q float64, unit string) {
	n := s.len()
	beyond := int(math.Floor(float64(n) * (1 - q)))
	note := ""
	if q > 0.5 && beyond < 10 {
		note = " (fewer than 10 samples beyond)"
	}
	fmt.Fprintf(r.out, "metric %-16s n=%d min=%.4g max=%.4g%s\n", name, n, s.quantile(0), s.quantile(1), note)
	r.setE2E(name, s.quantile(q), unit)
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout))
}

func mainErr(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("ledgerbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: chain-small, chain-large or serve-durable")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	work := fs.String("work", ".bench_build", "directory for data directories, traces and fingerprints")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "ledgerbench: bad arguments (workload %q)\n", *name)
		return 2
	}
	res, err := execute(w, *seed, *seconds, *trace == 1, *work, stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ledgerbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ledgerbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// execute runs one workload and assembles its result. An error means
// the benchmark itself could not run; a ledger that misbehaves yields a
// result with correct=false instead.
func execute(w workload, seed int64, seconds float64, trace bool, work string, stdout io.Writer) (*result, error) {
	dir, err := filepath.Abs(filepath.Join(work, "runs", fmt.Sprintf("%s-%d-%d", w.name, seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &run{
		w: w, seed: seed, seconds: seconds, trace: trace, root: work, work: dir, out: stdout,
		e2e: map[string]metric{}, layer: map[string]metric{},
	}
	if trace {
		r.spans = newSpanLog()
	}
	fmt.Fprintf(stdout, "ledgerbench %s seed=%d seconds=%g trace=%v accounts=%d\n",
		w.name, seed, seconds, trace, w.accounts)
	if w.interval > 0 {
		err = runServe(r)
	} else {
		err = runChain(r)
	}
	if err != nil {
		return nil, err
	}
	if trace {
		if err := r.spans.write(filepath.Join(work, "traces", fmt.Sprintf("%s-%d.jsonl", w.name, seed))); err != nil {
			return nil, err
		}
	}
	attempted, failed := r.attempted.Load(), r.failed.Load()
	if attempted == 0 {
		return nil, errors.New("no operations attempted")
	}
	r.setE2E("ok_ratio", 1-float64(failed)/float64(attempted), "ratio")
	res := &result{
		Correct:   len(r.gates) == 0 && failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   r.e2e,
	}
	want := endToEndMetrics
	if trace {
		res.Metrics, want = r.layer, perLayerMetrics
	}
	printMetrics(stdout, res.Metrics)
	if len(res.Metrics) != len(want) {
		return nil, fmt.Errorf("reported %d metrics, want %d", len(res.Metrics), len(want))
	}
	for _, name := range want {
		v, ok := res.Metrics[name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s missing or not a number", name)
		}
	}
	return res, nil
}

func printMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}
