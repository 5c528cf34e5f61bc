package main

import (
	"bytes"
	"fmt"
	"time"

	"smartchain/internal/blockchain"
	"smartchain/internal/coin"
	"smartchain/internal/core"
	"smartchain/internal/crypto"
	"smartchain/internal/smr"
)

// settleTimeout bounds how long the checks wait for live replicas to reach
// the same height after the load has drained.
const settleTimeout = 15 * time.Second

// chain returns the committed chain of the lowest-ID live replica,
// genesis included.
func (b *bench) chain() []blockchain.Block {
	ref := b.live()[0]
	gb := blockchain.GenesisBlock(&b.cluster.Genesis)
	return append([]blockchain.Block{gb}, ref.Node.Ledger().CachedBlocks()...)
}

// check runs the correctness checks and returns every violation found.
func (b *bench) check() []string {
	var bad []string
	live := b.live()

	// Live replicas converge to one height and hold byte-identical state.
	var top int64
	for _, cn := range live {
		top = max(top, cn.Node.Ledger().Height())
	}
	if err := b.cluster.WaitHeight(top, settleTimeout); err != nil {
		bad = append(bad, fmt.Sprintf("live replicas did not converge: %v", err))
	}
	ref := live[0]
	refSnap := ref.App.Snapshot()
	refH := ref.Node.Ledger().Height()
	for _, cn := range live[1:] {
		if h := cn.Node.Ledger().Height(); h != refH {
			bad = append(bad, fmt.Sprintf("replica %d at height %d, replica %d at %d", cn.ID, h, ref.ID, refH))
			continue
		}
		if !bytes.Equal(cn.App.Snapshot(), refSnap) {
			bad = append(bad, fmt.Sprintf("replica %d state differs from replica %d at height %d", cn.ID, ref.ID, refH))
		}
	}

	// The reference chain verifies from genesis, with certificates in the
	// strong variant (the PERSIST round of the tip may still be running).
	blocks := b.chain()
	strong := b.wl.persistence == core.PersistenceStrong
	if _, err := blockchain.VerifyChain(blocks, blockchain.VerifyOptions{
		RequireCerts:         strong,
		AllowUncertifiedTail: 2,
	}); err != nil {
		bad = append(bad, fmt.Sprintf("replica %d chain does not verify: %v", ref.ID, err))
	}

	// Every acknowledged SPEND is in the chain with an OK result, its input
	// is gone and its output present on every live replica.
	inChain := make(map[crypto.Hash]bool)
	for _, blk := range blocks[1:] {
		batch, err := smr.DecodeBatch(blk.Body.BatchData)
		if err != nil {
			bad = append(bad, fmt.Sprintf("block %d batch does not decode: %v", blk.Header.Number, err))
			continue
		}
		for i, req := range batch.Requests {
			if len(req.Op) == 0 || req.Op[0] != core.OpApp || i >= len(blk.Body.Results) {
				continue
			}
			res := blk.Body.Results[i]
			if len(res) == 0 || res[0] != coin.ResultOK {
				continue
			}
			if tx, err := coin.Decode(req.Op[1:]); err == nil {
				inChain[tx.Hash()] = true
			}
		}
	}
	var lost, stateBad, readBad, rejected int
	var firstRead string
	for _, s := range b.sessions {
		for _, o := range s.ops {
			switch {
			case o.rejected:
				rejected++
			case !o.ok:
			case o.read:
				if o.balance > o.hi || o.balance < o.lo {
					readBad++
					if firstRead == "" {
						firstRead = fmt.Sprintf("session %d read %d outside [%d, %d]", s.idx, o.balance, o.lo, o.hi)
					}
				}
			default:
				if !inChain[o.txHash] {
					lost++
				}
				for _, cn := range live {
					st := serviceOf(cn.App).State()
					_, inLive := st.Lookup(o.in)
					_, outLive := st.Lookup(o.out)
					if inLive || !outLive {
						stateBad++
					}
				}
			}
		}
	}
	if rejected > 0 {
		bad = append(bad, fmt.Sprintf("%d operations answered with a non-OK or malformed result", rejected))
	}
	if lost > 0 {
		bad = append(bad, fmt.Sprintf("%d acknowledged SPENDs missing from replica %d's chain", lost, ref.ID))
	}
	if stateBad > 0 {
		bad = append(bad, fmt.Sprintf("%d (replica, acknowledged SPEND) pairs with the input unspent or the output absent", stateBad))
	}
	if readBad > 0 {
		bad = append(bad, fmt.Sprintf("%d reads outside their bounds (read-your-writes, constant UTXO count); first: %s", readBad, firstRead))
	}
	return bad
}
