package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strconv"
	"sync"

	"dcsledger/internal/contract"
	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/types"
	"dcsledger/internal/vm"
)

// Input generation. Everything here is a pure function of the seed and
// runs before any timing starts. Transactions are signed
// deterministically and kept only as their encodings: the nodes under
// test receive bytes and decode them, so no verification memo can leak
// from the generator into a validator.

const (
	fundBalance   = 1 << 40
	tokenSupply   = 1 << 40
	tokenEvery    = 8 // one transaction in eight is a token transfer
	ownerFee      = 1_000
	invokeGas     = 10_000
	signerWorkers = 2
)

// accounts is a workload's funded account set. Only senders have keys;
// the rest are addresses derived from the seed, so a 100k-account state
// costs no key generation.
type accounts struct {
	seed    int64
	senders []*cryptoutil.KeyPair
	fees    []uint64 // per-sender fee: fixed per sender, varied across senders
	addrs   []cryptoutil.Address
	owner   *cryptoutil.KeyPair // deploys and distributes the token
	miner   *cryptoutil.KeyPair
	token   cryptoutil.Address
}

func newAccounts(seed int64, total int) *accounts {
	if senders > total {
		panic(fmt.Sprintf("ledgerbench: %d senders over %d accounts", senders, total))
	}
	a := &accounts{seed: seed}
	key := func(tag string, i int) *cryptoutil.KeyPair {
		return cryptoutil.KeyFromSeed([]byte(fmt.Sprintf("ledgerbench/%d/%s/%d", seed, tag, i)))
	}
	a.owner = key("owner", 0)
	a.miner = key("miner", 0)
	a.token = vm.ContractAddress(a.owner.Address(), 0)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < senders; i++ {
		k := key("sender", i)
		a.senders = append(a.senders, k)
		a.fees = append(a.fees, 1+uint64(rng.Intn(32)))
		a.addrs = append(a.addrs, k.Address())
	}
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[:8], uint64(seed))
	for i := senders; i < total; i++ {
		binary.BigEndian.PutUint64(buf[8:], uint64(i))
		a.addrs = append(a.addrs, cryptoutil.AddressFromHash(cryptoutil.HashBytes([]byte("ledgerbench/account"), buf[:])))
	}
	return a
}

// alloc is the genesis allocation: every account plus the token owner.
func (a *accounts) alloc() map[cryptoutil.Address]uint64 {
	m := make(map[cryptoutil.Address]uint64, len(a.addrs)+1)
	for _, addr := range a.addrs {
		m[addr] = fundBalance
	}
	m[a.owner.Address()] = fundBalance
	return m
}

// isTokenSender reports whether sender i only ever sends token
// transfers (and so receives tokens in the setup batch).
func isTokenSender(i int) bool { return i%tokenEvery == tokenEvery-1 }

// txGen emits the workload's transaction stream: global index g uses
// sender g mod S, so every batch of up to S transactions has distinct
// senders. The stream is the same for a seed however far it is drawn.
type txGen struct {
	acc    *accounts
	rng    *rand.Rand
	nonces []uint64
	next   int
}

func newTxGen(acc *accounts) *txGen {
	return &txGen{
		acc:    acc,
		rng:    rand.New(rand.NewSource(acc.seed ^ 0x5eed)),
		nonces: make([]uint64, len(acc.senders)),
	}
}

// setup is the token bootstrap: deploy, init, and a distribution to
// every token sender, all from the owner at a fee that outbids the
// stream so it lands in block 1.
func (g *txGen) setup() ([][]byte, error) {
	owner := g.acc.owner
	txs := []*types.Transaction{
		{Kind: types.TxDeploy, From: owner.Address(), Fee: ownerFee, Nonce: 0,
			GasLimit: invokeGas, Data: contract.DeployPayload("token")},
		{Kind: types.TxInvoke, From: owner.Address(), To: g.acc.token, Fee: ownerFee, Nonce: 1,
			GasLimit: invokeGas, Data: contract.EncodeCall("init", strconv.FormatUint(tokenSupply, 10))},
	}
	share := uint64(tokenSupply / (2 * len(g.acc.senders)))
	for i, s := range g.acc.senders {
		if !isTokenSender(i) {
			continue
		}
		txs = append(txs, &types.Transaction{
			Kind: types.TxInvoke, From: owner.Address(), To: g.acc.token, Fee: ownerFee,
			Nonce: uint64(len(txs)), GasLimit: invokeGas,
			Data: contract.EncodeCall("transfer", s.Address().Hex(), strconv.FormatUint(share, 10)),
		})
	}
	keys := make([]*cryptoutil.KeyPair, len(txs))
	for i := range keys {
		keys[i] = owner
	}
	return signEncode(txs, keys)
}

// batch draws the next n transactions of the stream.
func (g *txGen) batch(n int) ([][]byte, error) {
	txs := make([]*types.Transaction, n)
	keys := make([]*cryptoutil.KeyPair, n)
	for j := range txs {
		i := g.next % len(g.acc.senders)
		g.next++
		k := g.acc.senders[i]
		to := g.acc.addrs[g.rng.Intn(len(g.acc.addrs))]
		var tx *types.Transaction
		if isTokenSender(i) {
			amount := strconv.Itoa(1 + g.rng.Intn(5))
			tx = &types.Transaction{
				Kind: types.TxInvoke, From: k.Address(), To: g.acc.token, GasLimit: invokeGas,
				Data: contract.EncodeCall("transfer", to.Hex(), amount),
			}
		} else {
			tx = types.NewTransfer(k.Address(), to, 1+uint64(g.rng.Intn(1000)), 0, 0)
		}
		tx.Fee = g.acc.fees[i]
		tx.Nonce = g.nonces[i]
		g.nonces[i]++
		txs[j], keys[j] = tx, k
	}
	return signEncode(txs, keys)
}

// signEncode signs txs[i] with keys[i] on signerWorkers goroutines and
// returns the encodings in order.
func signEncode(txs []*types.Transaction, keys []*cryptoutil.KeyPair) ([][]byte, error) {
	out := make([][]byte, len(txs))
	errs := make([]error, signerWorkers)
	var wg sync.WaitGroup
	for w := 0; w < signerWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(txs); i += signerWorkers {
				if err := txs[i].SignDeterministic(keys[i]); err != nil {
					errs[w] = err
					return
				}
				out[i] = txs[i].Encode()
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
