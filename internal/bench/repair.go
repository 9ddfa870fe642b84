package bench

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/maint"
	"repro/internal/meta"
	"repro/internal/rpc"
	"repro/internal/vmanager"
	"repro/internal/workload"
)

// E14RepairChurn — self-healing under provider churn: a replication-2
// deployment loses one provider; the experiment measures (a) how fast the
// repair engine restores full replication (re-replication throughput),
// and (b) what the repair buys readers. Two reader-facing series:
//
//   - dead-refs: the fraction of live chunk descriptors still naming the
//     dead provider. Degraded it sits at ~2/providers (every replica set
//     containing the dead node); after the pass the patched descriptors
//     bring it to exactly zero — no future read can route at the dead
//     node again.
//   - session-probes: get-RPCs per chunk for fresh-session single-chunk
//     reads (the many-users serving shape) over exactly those dead-
//     referencing chunks. A cold client probes descriptor order, so
//     degraded sessions pay a probe + failover round trip whenever the
//     dead replica leads; repaired sessions pay exactly one probe.
//     Client-side health scoring cannot deliver that — it demotes the
//     dead node only within one client's lifetime and re-pays the probe
//     in every new session. The RPC count is the honest metric on the
//     simulated fabric, where a dead node fails calls immediately; on a
//     real network each extra probe is a connect timeout.
func E14RepairChurn(o Options) (*Result, error) {
	res := &Result{
		ID:    "E14",
		Title: "repair under churn: re-replication throughput, dead-replica references, cold-session probes",
		Notes: "kill 1 of 8 providers at replication 2; repair re-replicates with batched getchunks/putchunks and patches leaf descriptors",
	}
	bytesTotal := o.scaleU64(32<<20, 2<<20)
	p, err := repairChurnPoint(bytesTotal)
	if err != nil {
		return nil, err
	}
	x := float64(bytesTotal) / (1 << 20)
	label := fmt.Sprintf("dataset=%dMiB", int(x))
	res.Add("repair-throughput", x, label, p.repairMBps, "MB/s")
	res.Add("dead-refs-degraded", x, label, p.degradedDeadRefs, "fraction")
	res.Add("dead-refs-repaired", x, label, p.repairedDeadRefs, "fraction")
	res.Add("session-probes-degraded", x, label, p.degradedProbes, "getRPCs/chunk")
	res.Add("session-probes-repaired", x, label, p.repairedProbes, "getRPCs/chunk")
	return res, nil
}

type churnPoint struct {
	repairMBps       float64
	degradedDeadRefs float64
	repairedDeadRefs float64
	degradedProbes   float64
	repairedProbes   float64
}

func repairChurnPoint(bytesTotal uint64) (*churnPoint, error) {
	const chunkSize = 64 << 10
	c, err := cluster.Start(cluster.Config{
		DataProviders:     8,
		MetaProviders:     4,
		Fabric:            testbedFabric(),
		CallTimeout:       120 * time.Second,
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  400 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()

	cli, err := c.NewClient(cluster.ClientOptions{MetaCacheNodes: 1 << 16})
	if err != nil {
		return nil, err
	}
	blob, err := cli.CreateBlob(chunkSize, 2)
	if err != nil {
		return nil, err
	}
	size := bytesTotal - bytesTotal%chunkSize
	if size == 0 {
		size = chunkSize
	}
	data := make([]byte, size)
	workload.Fill(data, 14)
	if _, err := blob.Write(data, 0); err != nil {
		return nil, err
	}
	chunks := size / chunkSize

	dead := c.ProviderAddrs()[0]
	c.KillProvider(0)
	time.Sleep(800 * time.Millisecond) // heartbeat timeout declares it dead

	// deadRefChunks walks the latest version's descriptors and returns
	// the chunk indexes still naming the dead provider.
	mrpc := rpc.NewClientFrom(c.Network, 60*time.Second, "bench-e14")
	defer mrpc.Close()
	mc := meta.NewClient(mrpc, c.MetaAddrs(), 1, 0)
	version, _, err := blob.Latest()
	if err != nil {
		return nil, err
	}
	deadRefChunks := func() ([]uint64, error) {
		refs, err := meta.CollectLeaves(mc, blob.ID(), version, chunks, 0, chunks)
		if err != nil {
			return nil, err
		}
		var idxs []uint64
		for i, ref := range refs {
			for _, a := range ref.Providers {
				if a == dead {
					idxs = append(idxs, uint64(i))
					break
				}
			}
		}
		return idxs, nil
	}
	// sessionProbes reads each given chunk from a FRESH client (the
	// many-users serving shape: health feedback starts cold every
	// session) and reports get RPCs per chunk.
	sessionProbes := func(idxs []uint64) (float64, error) {
		if len(idxs) > 64 {
			idxs = idxs[:64]
		}
		if len(idxs) == 0 {
			return 1, nil
		}
		var gets int64
		for _, idx := range idxs {
			rcli, err := c.NewClient(cluster.ClientOptions{})
			if err != nil {
				return 0, err
			}
			b, err := rcli.OpenBlob(blob.ID())
			if err != nil {
				return 0, err
			}
			buf := make([]byte, chunkSize)
			if _, err := b.Read(0, buf, idx*chunkSize); err != nil {
				return 0, err
			}
			if !bytes.Equal(buf, data[idx*chunkSize:(idx+1)*chunkSize]) {
				return 0, fmt.Errorf("bench: session read of chunk %d returned wrong bytes", idx)
			}
			gets += rcli.IOStats().ChunkGetRPCs
		}
		return float64(gets) / float64(len(idxs)), nil
	}

	p := &churnPoint{}
	deadIdxs, err := deadRefChunks()
	if err != nil {
		return nil, fmt.Errorf("degraded walk: %w", err)
	}
	p.degradedDeadRefs = float64(len(deadIdxs)) / float64(chunks)
	if p.degradedProbes, err = sessionProbes(deadIdxs); err != nil {
		return nil, fmt.Errorf("degraded sessions: %w", err)
	}

	start := time.Now()
	st, err := c.Maint.Run(maint.Replicate)
	if err != nil {
		return nil, fmt.Errorf("repair pass: %w", err)
	}
	repairElapsed := time.Since(start)
	if st[vmanager.RepairReReplicated] == 0 {
		return nil, fmt.Errorf("bench: repair pass re-replicated nothing (stats %+v)", st)
	}
	p.repairMBps = mbps(st[vmanager.RepairBytesMoved], repairElapsed)

	// Repaired: the same chunks, re-walked and re-read — the patched
	// descriptors must never route at the dead provider again.
	repairedIdxs, err := deadRefChunks()
	if err != nil {
		return nil, fmt.Errorf("repaired walk: %w", err)
	}
	p.repairedDeadRefs = float64(len(repairedIdxs)) / float64(chunks)
	if p.repairedProbes, err = sessionProbes(deadIdxs); err != nil {
		return nil, fmt.Errorf("repaired sessions: %w", err)
	}
	return p, nil
}
