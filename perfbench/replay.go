package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"smartchain/internal/blockchain"
	"smartchain/internal/coin"
	"smartchain/internal/core"
	"smartchain/internal/smr"
	"smartchain/internal/storage"
)

// filelogBlocks caps the blocks appended and synced to a real file: each
// sync costs the host disk's flush time.
const filelogBlocks = 100

// replayResult is the cost of each layer's public function on the run's
// own committed chain.
type replayResult struct {
	blocks, txs      int
	decodeUSPerBlock float64
	sigUSPerTx       float64
	verifyOpUS       float64
	execUSPerTx      float64
	rangeUSPerBlock  float64
	filelogSyncUS    float64
	violations       []string
}

// replay times the layers one at a time on the chain: batch decoding,
// request-signature verification, the application's VerifyOp, execution
// on a fresh service, range verification from genesis, and FileLog
// append+sync. Every step runs on one goroutine, so its time per item is
// the CPU cost of one call, comparable with a wrapped call's self time.
func (b *bench) replay(tmpRoot string) (replayResult, error) {
	var r replayResult
	chain := b.chain()
	blocks := chain[1:]
	r.blocks = len(blocks)
	if r.blocks == 0 {
		return r, fmt.Errorf("replay: empty chain")
	}

	batches := make([]smr.Batch, len(blocks))
	start := time.Now()
	for i := range blocks {
		batch, err := smr.DecodeBatch(blocks[i].Body.BatchData)
		if err != nil {
			return r, fmt.Errorf("replay: decode block %d: %w", blocks[i].Header.Number, err)
		}
		batches[i] = batch
	}
	r.decodeUSPerBlock = us(time.Since(start)) / float64(len(blocks))
	for _, bt := range batches {
		r.txs += len(bt.Requests)
	}

	// Request envelopes go through the node's batched path
	// (crypto.BatchVerifier) with one worker.
	pool := smr.NewVerifierPool(smr.VerifyParallel, 1)
	start = time.Now()
	var badSigs int
	for _, bt := range batches {
		for _, ok := range pool.VerifyBatch(bt.Requests) {
			if !ok {
				badSigs++
			}
		}
	}
	sigTime := time.Since(start)
	pool.Close()
	if badSigs > 0 {
		r.violations = append(r.violations, fmt.Sprintf("replay: %d committed requests fail signature verification", badSigs))
	}

	// The application's VerifyOp on each application request, as the node
	// calls it after the envelope check: it decodes the transaction and
	// checks the signature embedded in it.
	verifier := coin.NewService(nil)
	var verifyOpTime time.Duration
	var verifyOps, badOps int
	for _, bt := range batches {
		for _, req := range bt.Requests {
			if len(req.Op) == 0 || req.Op[0] != core.OpApp {
				continue
			}
			req.Op = req.Op[1:]
			start = time.Now()
			ok := verifier.VerifyOp(&req)
			verifyOpTime += time.Since(start)
			verifyOps++
			if !ok {
				badOps++
			}
		}
	}
	if badOps > 0 {
		r.violations = append(r.violations, fmt.Sprintf("replay: %d committed operations fail VerifyOp", badOps))
	}
	if verifyOps > 0 {
		r.verifyOpUS = us(verifyOpTime) / float64(verifyOps)
	}

	// Execute every block on a fresh service; every request the chain
	// records as executed must give the recorded result.
	svc := b.in.newService()
	var execTime time.Duration
	var mismatches int
	for i, bt := range batches {
		var reqs []smr.Request
		var idx []int
		for j, req := range bt.Requests {
			if len(req.Op) > 0 && req.Op[0] == core.OpApp {
				req.Op = req.Op[1:]
				reqs = append(reqs, req)
				idx = append(idx, j)
			}
		}
		bc := smr.NewBatchContext(blocks[i].Header.Number, blocks[i].Body.ConsensusID, blocks[i].Body.Epoch, &batches[i])
		start = time.Now()
		results := svc.ExecuteBatch(bc, reqs)
		execTime += time.Since(start)
		for k, j := range idx {
			want := blocks[i].Body.Results[j]
			if !nodeResult(want) && !bytes.Equal(results[k], want) {
				mismatches++
			}
		}
	}
	if mismatches > 0 {
		r.violations = append(r.violations, fmt.Sprintf("replay: %d results differ from the chain's", mismatches))
	}
	if !bytes.Equal(svc.Snapshot(), b.live()[0].App.Snapshot()) {
		r.violations = append(r.violations, "replay: state after re-execution differs from the replica's")
	}

	g := b.cluster.Genesis
	ledger := blockchain.NewLedger(g)
	anchor := blockchain.RangeAnchor{
		Number:         0,
		Hash:           ledger.LastHash(),
		LastReconfig:   ledger.LastReconfig(),
		LastCheckpoint: ledger.LastCheckpoint(),
		View:           g.InitialView(),
		Permanent:      g.PermanentKeys(),
	}
	start = time.Now()
	if _, err := blockchain.VerifyRange(anchor, blocks, 0); err != nil {
		r.violations = append(r.violations, fmt.Sprintf("replay: VerifyRange from genesis: %v", err))
	}
	r.rangeUSPerBlock = us(time.Since(start)) / float64(len(blocks))

	dir, err := os.MkdirTemp(tmpRoot, "filelog-")
	if err != nil {
		return r, fmt.Errorf("replay: temp dir: %w", err)
	}
	defer os.RemoveAll(dir)
	flog, err := storage.OpenFileLog(filepath.Join(dir, "chain.log"))
	if err != nil {
		return r, fmt.Errorf("replay: open file log: %w", err)
	}
	n := min(len(blocks), filelogBlocks)
	start = time.Now()
	for i := 0; i < n; i++ {
		if err := flog.Append(blockchain.EncodeBlockRecord(&blocks[i])); err != nil {
			flog.Close()
			return r, fmt.Errorf("replay: file log append: %w", err)
		}
		if err := flog.Sync(); err != nil {
			flog.Close()
			return r, fmt.Errorf("replay: file log sync: %w", err)
		}
	}
	r.filelogSyncUS = us(time.Since(start)) / float64(n)
	if err := flog.Close(); err != nil {
		return r, fmt.Errorf("replay: close file log: %w", err)
	}

	if r.txs > 0 {
		r.sigUSPerTx = us(sigTime) / float64(r.txs)
		r.execUSPerTx = us(execTime) / float64(r.txs)
	}
	return r, nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// nodeResult reports whether a recorded result is one the node wrote
// without the application, such as its marker for a request it filtered
// as already executed; the node's markers are single bytes from 0xF0 up.
// The replay executes such requests anyway, so it cannot reproduce them.
func nodeResult(res []byte) bool {
	return len(res) == 1 && res[0] >= 0xF0
}
