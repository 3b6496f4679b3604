// Replica repair: the background loop that drains write-ahead handoff
// logs to revived replicas and audits the result before letting them
// serve reads again.
//
// A lagging replica's log holds every write the coordinator acked while
// the replica was unreachable, in original order under the original
// idempotency keys. Repair replays it through the SYNC verb, which the
// server routes through the same dedup table as the original writes —
// so a drain interrupted by a crash or a second failure simply re-ships
// from the start and the already-applied prefix deduplicates to
// nothing: replay is idempotent end to end and needs no cursor.
//
// Draining alone does not prove the replica converged. After the log
// empties, repair fetches per-root digests (DIGEST verb) from the
// repaired replica and from a live peer and compares them; only
// agreement restores the replica to the read preference list. A
// mismatch means the replica diverged in a way replay cannot explain —
// the replica is latched out of reads, the RepairMismatch counter
// trips, and tycfsck -cluster reports it loudly.
package cluster

import (
	"time"

	"tycoon/internal/ship"
)

// repairBatch bounds the records shipped per SYNC frame: small enough
// to keep frames modest, large enough to amortise the round trip.
const repairBatch = 64

// repairLoop paces background repair passes.
func (co *Coordinator) repairLoop() {
	defer co.repairWG.Done()
	t := time.NewTicker(co.cfg.RepairInterval)
	defer t.Stop()
	for {
		select {
		case <-co.stopRepair:
			return
		case <-t.C:
		}
		co.RepairNow()
	}
}

// RepairNow runs one repair pass over every lagging replica whose
// connectivity is back (the probe loop clears the down latch; repair
// clears the lag). Safe to call concurrently with the background loop —
// passes are serialised. Tests with RepairInterval < 0 drive repair
// entirely through this; tycc's drain path calls it for a best-effort
// final catch-up before shutdown.
func (co *Coordinator) RepairNow() {
	co.repairMu.Lock()
	defer co.repairMu.Unlock()
	for _, s := range co.shards {
		for _, rep := range s.replicas {
			if rep.ho == nil || rep.state.Load() == repLive {
				continue
			}
			if rep.down.Load() {
				continue // wait for the probe to see it answering again
			}
			if rep.mismatched.Load() {
				continue // audit refused it; MarkAllUp re-arms the attempt
			}
			co.repairReplica(s, rep)
		}
	}
}

// repairReplica drives one lagging replica toward live: drain, audit,
// and — only with the log still empty under the lag lock — restore. A
// writer racing the final check keeps the log non-empty and the latch
// lagging; the next pass picks the remainder up.
func (co *Coordinator) repairReplica(s *shard, rep *replica) {
	if !rep.state.CompareAndSwap(repLagging, repRepairing) {
		return
	}
	if !co.drainReplica(s, rep) || !co.auditReplica(s, rep) {
		rep.state.Store(repLagging)
		return
	}
	rep.lagMu.Lock()
	if rep.ho.Len() == 0 {
		rep.state.Store(repLive)
		co.repairs.Add(1)
		co.logf("shard %d replica %s repaired: backlog drained, digests agree, back in reads", s.index, rep.addr)
	} else {
		// New writes landed between the audit and now; not converged yet.
		rep.state.Store(repLagging)
	}
	rep.lagMu.Unlock()
}

// drainReplica ships the handoff backlog to the replica in order,
// trimming the log only after each batch is acked. True means the log
// was empty when we last looked.
func (co *Coordinator) drainReplica(s *shard, rep *replica) bool {
	for {
		recs := rep.ho.Peek(repairBatch)
		if len(recs) == 0 {
			return true
		}
		items := make([]ship.ShipItem, len(recs))
		for i, r := range recs {
			items[i] = ship.ShipItem{Verb: ship.Verb(r.Verb), Body: r.Body}
		}
		c, err := rep.get(co)
		if err != nil {
			co.markDown(rep, err)
			return false
		}
		sok, err := c.Sync(items)
		if err != nil {
			c.Close()
			if ship.Definitive(err) != nil {
				// The replica refused an acked write: replay cannot
				// converge this store. Latch it out of reads and say so.
				co.repairMismatch.Add(1)
				rep.mismatched.Store(true)
				co.logf("shard %d replica %s refused handoff replay: %v — held out of reads, run tycfsck -cluster",
					s.index, rep.addr, err)
				return false
			}
			co.markDown(rep, err)
			return false
		}
		rep.put(co, c)
		if int(sok.Applied) != len(recs) {
			// The server applied a prefix without erroring; treat like an
			// availability blip and re-ship (dedup absorbs the overlap).
			co.logf("shard %d replica %s short sync: %d of %d", s.index, rep.addr, sok.Applied, len(recs))
			return false
		}
		if err := rep.ho.TruncatePrefix(len(recs)); err != nil {
			co.logf("shard %d replica %s handoff trim failed: %v", s.index, rep.addr, err)
			return false
		}
		co.repairShipped.Add(int64(len(recs)))
	}
}

// auditReplica is the anti-entropy gate: fetch the repaired replica's
// per-root digests, record its CSN, and compare against the first live
// peer of the shard. No live peer means no evidence either way — the
// audit passes vacuously rather than keeping the whole shard dark.
//
// A disagreement is only divergence if the replica was actually caught
// up when the digests were taken. A write racing the audit applies on
// the live peer first and lands in the handoff log moments later, so
// the peer's digest can legitimately run ahead. The audit therefore
// holds down: a diff observed while the log is non-empty or any append
// landed mid-audit is lag (retry, strikes reset), and a quiescent diff
// must repeat on a second consecutive pass before mismatched latches.
func (co *Coordinator) auditReplica(s *shard, rep *replica) bool {
	appendsBefore := rep.appends.Load()
	mine, err := co.replicaDigest(rep)
	if err != nil {
		co.markDown(rep, err)
		return false
	}
	rep.lastRepairCSN.Store(mine.CSN)
	var peer *replica
	for _, p := range s.replicas {
		if p != rep && p.state.Load() == repLive && !p.down.Load() {
			peer = p
			break
		}
	}
	if peer == nil {
		rep.auditStrikes.Store(0)
		return true
	}
	theirs, err := co.replicaDigest(peer)
	if err != nil {
		co.markDown(peer, err)
		return false
	}
	if diff := digestDiff(mine, theirs); diff != "" {
		rep.lagMu.Lock()
		quiescent := rep.ho.Len() == 0 && rep.appends.Load() == appendsBefore
		rep.lagMu.Unlock()
		if !quiescent {
			// The peer is ahead by writes still landing in the handoff
			// log; the next pass drains them and compares again.
			rep.auditStrikes.Store(0)
			return false
		}
		if rep.auditStrikes.Add(1) < 2 {
			co.logf("shard %d replica %s digest disagreement vs %s (%s); re-auditing before declaring divergence",
				s.index, rep.addr, peer.addr, diff)
			return false
		}
		co.repairMismatch.Add(1)
		rep.mismatched.Store(true)
		co.logf("shard %d replica %s digest mismatch vs %s after repair (%s) — held out of reads, run tycfsck -cluster",
			s.index, rep.addr, peer.addr, diff)
		return false
	}
	rep.auditStrikes.Store(0)
	return true
}

// replicaDigest fetches one replica's full digest map.
func (co *Coordinator) replicaDigest(rep *replica) (*ship.DigestOK, error) {
	c, err := rep.get(co)
	if err != nil {
		return nil, err
	}
	d, err := c.Digest("")
	if err != nil {
		c.Close()
		return nil, err
	}
	rep.put(co, c)
	return d, nil
}

// digestDiff compares two digest maps root by root and names the first
// disagreement ("" means they agree). CSN and binding epoch are local
// counters and deliberately not compared — only content counts.
func digestDiff(a, b *ship.DigestOK) string {
	am := make(map[string]string, len(a.Roots))
	for _, r := range a.Roots {
		am[r.Name] = r.Digest
	}
	bm := make(map[string]string, len(b.Roots))
	for _, r := range b.Roots {
		bm[r.Name] = r.Digest
	}
	for name, d := range am {
		pd, ok := bm[name]
		if !ok {
			return "root " + name + " missing on peer"
		}
		if pd != d {
			return "root " + name + " differs"
		}
	}
	for name := range bm {
		if _, ok := am[name]; !ok {
			return "root " + name + " missing on repaired replica"
		}
	}
	return ""
}
