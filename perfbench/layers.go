package main

import (
	"fmt"
	"path/filepath"
	"time"

	"smartchain/internal/core"
)

// counterSnap is every counter the per-layer metrics difference, read at
// one instant.
type counterSnap struct {
	at    int64
	nodes map[int32]core.Stats

	sends, sendNS         int64
	sendBytes             [numMsgClasses]int64
	verifyCalls, verifyNS int64
	execTxs, execNS       int64
	readCalls, readNS     int64
	diskBytes, diskSyncs  int64
	diskBusy              time.Duration
	refQueries            int64
}

func (b *bench) snapshot() counterSnap {
	s := counterSnap{at: b.now(), nodes: make(map[int32]core.Stats)}
	for id, cn := range b.cluster.Nodes {
		if cn.Node != nil {
			s.nodes[id] = cn.Node.Stats()
		}
	}
	if c := b.counters; c != nil {
		s.sends, s.sendNS = c.sends.Load(), c.sendNS.Load()
		for i := range s.sendBytes {
			s.sendBytes[i] = c.sendBytes[i].Load()
		}
		s.verifyCalls, s.verifyNS = c.verifyCalls.Load(), c.verifyNS.Load()
		s.execTxs, s.execNS = c.execTxs.Load(), c.execNS.Load()
		s.readCalls, s.readNS = c.readCalls.Load(), c.readNS.Load()
		if a, ok := b.live()[0].App.(*tracedApp); ok {
			s.refQueries = a.queries.Load()
		}
	}
	b.disksMu.Lock()
	for _, d := range b.disks {
		bytes, syncs := d.Stats()
		s.diskBytes += bytes
		s.diskSyncs += syncs
		s.diskBusy += time.Duration(syncs)*d.SyncLatency + time.Duration(float64(bytes)/d.BytesPerSecond*float64(time.Second))
	}
	b.disksMu.Unlock()
	return s
}

// sumNodes sums f over every replica present in both snapshots.
func sumNodes(a, z counterSnap, f func(core.Stats) int64) int64 {
	var n int64
	for id, st := range z.nodes {
		n += f(st) - f(a.nodes[id])
	}
	return n
}

// wireDrops is the number of frames tcpnet dropped since the deployment
// started, for every cause; 0 on the in-memory network.
func (b *bench) wireDrops() int64 {
	var n int64
	for _, ws := range b.cluster.WireStats() {
		n += ws.TotalDrops()
	}
	return n
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func (b *bench) readsIssued() int {
	n := 0
	for _, s := range b.sessions {
		for _, o := range s.ops {
			if o.read {
				n++
			}
		}
	}
	return n
}

// runTraced runs the workload untraced and then traced, each for half of
// total, and derives the per-layer metrics from the traced run.
func runTraced(wl *workload, seed int64, total time.Duration, sessions int, outDir string) (*report, error) {
	half := total / 2
	in := makeInputs(wl, seed, sessions, half)
	origin := time.Now()
	rep := &report{metrics: make(map[string]metric)}

	u, _, err := newBench(wl, in, false, origin)
	if err != nil {
		return nil, err
	}
	uStart := u.snapshot()
	if err := u.runPhases(half); err != nil {
		rep.violations = append(rep.violations, "untraced: "+err.Error())
	}
	uEnd := u.snapshot()
	for _, v := range u.check() {
		rep.violations = append(rep.violations, "untraced: "+v)
	}
	ue := u.measure()
	uRef := u.live()[0].ID
	uInstPerTx := ratio(float64(uEnd.nodes[uRef].Instances-uStart.nodes[uRef].Instances),
		float64(uEnd.nodes[uRef].ExecutedTxs-uStart.nodes[uRef].ExecutedTxs))
	uUnordered := ratio(float64(sumNodes(uStart, uEnd, func(s core.Stats) int64 { return s.UnorderedReads })), float64(u.readsIssued()))
	u.stop()

	t, _, err := newBench(wl, in, true, origin)
	if err != nil {
		return nil, err
	}
	defer t.stop()
	utxos := t.live()[0].App.(*tracedApp).svc.State().UTXOCount()
	start := t.snapshot()
	if err := t.runPhases(half); err != nil {
		rep.violations = append(rep.violations, "traced: "+err.Error())
	}
	end := t.snapshot()
	for _, v := range t.check() {
		rep.violations = append(rep.violations, "traced: "+v)
	}
	te := t.measure()
	rp, err := t.replay(outDir)
	if err != nil {
		return nil, err
	}
	rep.violations = append(rep.violations, rp.violations...)
	if err := t.rec.writeJSONL(filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", wl.name, seed))); err != nil {
		return nil, err
	}

	ref := t.live()[0].ID
	d := func(f func(core.Stats) int64) float64 {
		return float64(f(end.nodes[ref]) - f(start.nodes[ref]))
	}
	txs := d(func(s core.Stats) int64 { return s.ExecutedTxs })
	instances := d(func(s core.Stats) int64 { return s.Instances })
	blocks := d(func(s core.Stats) int64 { return s.Blocks })
	allTxs := float64(sumNodes(start, end, func(s core.Stats) int64 { return s.ExecutedTxs }))
	allBlocks := float64(sumNodes(start, end, func(s core.Stats) int64 { return s.Blocks }))
	unordered := ratio(float64(sumNodes(start, end, func(s core.Stats) int64 { return s.UnorderedReads })), float64(t.readsIssued()))
	window := time.Duration(end.at - start.at)

	var submitNS, submits float64
	for _, s := range t.sessions {
		for _, o := range s.ops {
			if o.phase >= 0 {
				submitNS += float64(o.submitNS)
				submits++
			}
		}
	}
	var frames, flushes int64
	for _, ws := range t.cluster.WireStats() {
		for _, p := range ws.Peers {
			frames += p.Sent
			flushes += p.Flushes
		}
	}
	drops := t.wireDrops()
	epochs := map[phaseKind]int64{}
	for _, p := range t.phases {
		epochs[p.kind] += p.epochChanges
	}
	var allEpochs int64 = t.setupEpochChanges
	for _, n := range epochs {
		allEpochs += n
	}
	selfUS, spanCount, orphans := t.rec.selfTimes()

	m := rep.metrics
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	put("client.submit_us", ratio(submitNS, submits)/1e3, "us")
	sends := float64(end.sends - start.sends)
	put("transport.msgs_per_tx", ratio(sends, txs), "count")
	var bytesAll float64
	for c := msgClass(0); c < numMsgClasses; c++ {
		v := float64(end.sendBytes[c] - start.sendBytes[c])
		bytesAll += v
		if c != classOther {
			put("transport.bytes_per_tx."+msgClassNames[c], ratio(v, txs), "bytes")
		}
	}
	put("transport.bytes_per_tx", ratio(bytesAll, txs), "bytes")
	put("transport.send_us", ratio(float64(end.sendNS-start.sendNS), sends)/1e3, "us")
	put("transport.tcp_frames_per_flush", ratio(float64(frames), float64(flushes)), "count")
	put("transport.tcp_drops", float64(drops), "count")
	put("consensus.tx_per_instance", ratio(txs, instances), "count")
	put("consensus.empty_instance_frac", ratio(instances-blocks, instances), "frac")
	put("consensus.epoch_changes", float64(allEpochs), "count")
	put("consensus.epoch_changes.setup", float64(t.setupEpochChanges), "count")
	for k := phaseSaturation; k <= phaseReadProbe; k++ {
		put("consensus.epoch_changes."+k.String(), float64(epochs[k]), "count")
	}
	put("smr.verify_op_us", ratio(float64(end.verifyNS-start.verifyNS), float64(end.verifyCalls-start.verifyCalls))/1e3, "us")
	put("coin.execute_us_per_tx", ratio(float64(end.execNS-start.execNS), float64(end.execTxs-start.execTxs))/1e3, "us")
	put("coin.read_us", ratio(float64(end.readNS-start.readNS), float64(end.readCalls-start.readCalls))/1e3, "us")
	put("coin.utxo_count", float64(utxos), "count")
	put("core.read_fallback_frac", ratio(float64(end.refQueries-start.refQueries), float64(t.readsIssued())), "frac")
	put("storage.syncs_per_block", ratio(float64(end.diskSyncs-start.diskSyncs), allBlocks), "count")
	put("storage.bytes_per_tx", ratio(float64(end.diskBytes-start.diskBytes), allTxs), "bytes")
	put("storage.device_busy_frac", ratio(float64(end.diskBusy-start.diskBusy), float64(window)*float64(len(t.cluster.Nodes))), "frac")
	put("replay.blocks", float64(rp.blocks), "count")
	put("replay.decode_us_per_block", rp.decodeUSPerBlock, "us")
	put("replay.sigverify_us_per_tx", rp.sigUSPerTx, "us")
	put("replay.execute_us_per_tx", rp.execUSPerTx, "us")
	put("replay.verify_range_us_per_block", rp.rangeUSPerBlock, "us")
	put("replay.filelog_sync_us", rp.filelogSyncUS, "us")
	put("replay.verify_op_us", rp.verifyOpUS, "us")
	put("replay.verify_ratio", ratio(m["smr.verify_op_us"].Value, rp.verifyOpUS), "ratio")
	var transfers int64
	for _, st := range end.nodes {
		transfers += st.StateTransfers
	}
	put("core.state_transfers", float64(transfers), "count")
	put("gen.lag_p99_ms", te.genLagP99, "ms")
	put("lat_p99_ms", ue.latP99, "ms")
	put("read_lat_p99_ms", ue.readP99, "ms")
	put("trace.overhead_frac", 1-ratio(te.tput, ue.tput), "frac")
	kept, dropped := t.rec.count()
	put("trace.spans", float64(kept), "count")
	put("trace.orphan_spans", float64(orphans), "count")
	put("trace.unordered_reads_ratio", ratio(unordered, uUnordered), "ratio")
	put("trace.instances_ratio", ratio(ratio(instances, txs), uInstPerTx), "ratio")
	for _, name := range spanNames {
		put("self_us."+name, selfUS[name], "us")
	}
	rep.attempted = ue.attempted + te.attempted
	rep.failed = ue.failed + te.failed
	put("fail_frac", ratio(float64(rep.failed), float64(rep.attempted)), "frac")

	// The wrappers must not change the program: reads the untraced run
	// served without consensus are served without consensus traced too.
	if uUnordered > 0 && unordered == 0 {
		rep.violations = append(rep.violations, "traced run served no unordered reads; the untraced run did")
	}
	if r := m["trace.instances_ratio"].Value; r > 2 || r < 0.5 {
		rep.findings = append(rep.findings, fmt.Sprintf("traced run used %.2fx the instances per tx of the untraced run", r))
	}
	if drops > 0 {
		rep.findings = append(rep.findings, fmt.Sprintf("tcp wire dropped %d frames", drops))
	}
	if dropped > 0 {
		rep.findings = append(rep.findings, fmt.Sprintf("%d spans beyond the first %d were not kept", dropped, maxSpans))
	}

	rep.findings = append(rep.findings,
		fmt.Sprintf("reconcile verify: in-node VerifyOp %.2f us/call (self %.2f, %d spans) vs replayed VerifyOp %.2f us/call on one goroutine; replayed request-envelope verify %.2f us/signature",
			m["smr.verify_op_us"].Value, selfUS[spanVerifyOp], spanCount[spanVerifyOp], rp.verifyOpUS, rp.sigUSPerTx),
		fmt.Sprintf("reconcile execute: traced ExecuteBatch %.2f us/tx vs replay %.2f us/tx on a fresh service",
			m["coin.execute_us_per_tx"].Value, rp.execUSPerTx),
		fmt.Sprintf("reconcile storage: modeled HDD busy %.3f of the window, %.2f syncs/block vs local-disk FileLog append+sync %.0f us/block",
			m["storage.device_busy_frac"].Value, m["storage.syncs_per_block"].Value, rp.filelogSyncUS),
		fmt.Sprintf("reconcile client: op self time (not covered by submit, verify or read spans) %.0f us of which submit %.1f us",
			selfUS[spanOp], selfUS[spanSubmit]),
		fmt.Sprintf("read cost: coin.read_us %.1f at %d UTXOs", m["coin.read_us"].Value, utxos),
	)
	// Both sides time the same call on the same operations; what the
	// in-node call costs beyond the replay is time its goroutine waited
	// for a CPU while the node's verify workers, consensus and execution
	// ran beside it.
	if v, r := m["smr.verify_op_us"].Value, rp.verifyOpUS; v > 0 && r > 0 && (v/r > 2 || r/v > 2) {
		rep.findings = append(rep.findings, fmt.Sprintf("layer disagreement: an in-node VerifyOp takes %.2fx the replayed one", v/r))
	}
	return rep, nil
}
