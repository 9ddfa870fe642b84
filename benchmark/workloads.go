package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/rpc"
	"repro/internal/trace"
)

const (
	kib = 1 << 10
	mib = 1 << 20
)

// Sizes of the four workloads. They were calibrated once on the two-core
// reference box so that set-up fits the driver's time cap; README.md gives
// the reasoning for each.
const (
	bulkChunk     = 64 * kib
	bulkWriteSize = 4 * mib  // 64 chunks per write
	bulkReadBlob  = 64 * mib // prefilled, replication 2
	bulkReadSize  = 16 * mib // 256 chunks per read: the canonical cold read

	pointChunk      = 8 * kib
	pointBlob       = 64 * mib // 8192 chunks, 16383 tree nodes
	pointOverwrites = 256      // seeded 1-8 chunk overwrites on top of the full write
	pointReadSize   = 4 * kib
	pointCacheNodes = 2048 // an eighth of the tree

	appendChunk      = 64 * kib
	appendPrefill    = 16 // chunks appended before a round is timed
	appendReadSize   = 1 * mib
	appendCacheNodes = 65536 // the whole tree fits

	prefillWrite = 16 * mib // set-up writes blobs in pieces of this size
)

var errWrongBytes = errors.New("read returned wrong bytes")

// env is what a workload runs against: a started deployment, the two
// closed-loop clients (each its own core.Client, so its own connections),
// and the seeded content.
type env struct {
	dep       *deployment
	clients   [2]*core.Client
	pat       *pattern
	seed      uint64
	userBytes atomic.Int64     // payload bytes acknowledged by writes and appends
	rpcSpans  *rpcSpanObserver // set in traced runs only
}

// newClient opens a client the way an application would: TCP, default
// timeouts, the shipped 1-in-256 head sampling.
func (e *env) newClient(name string, cacheNodes int) (*core.Client, error) {
	cli, err := core.NewClient(core.Config{
		Network:        rpc.NewTCPNetwork(),
		VMAddr:         e.dep.vmAddr(),
		PMAddr:         e.dep.pmAddr(),
		MetaProviders:  e.dep.addrs(roleMeta),
		MetaCacheNodes: cacheNodes,
		Tracer:         trace.New("client", name, trace.NewRecorder(0, 0), 256, 50*time.Millisecond),
	})
	if err != nil {
		return nil, err
	}
	if e.rpcSpans != nil {
		cli.RPC().SetObserver(e.rpcSpans)
	}
	return cli, nil
}

func (e *env) openClients(cacheNodes int) error {
	for i := range e.clients {
		cli, err := e.newClient(fmt.Sprintf("bench-c%d", i), cacheNodes)
		if err != nil {
			return err
		}
		e.clients[i] = cli
	}
	return nil
}

func (e *env) closeClients() {
	for i, c := range e.clients {
		if c != nil {
			c.Close()
			e.clients[i] = nil
		}
	}
}

// opFunc performs one client's i-th operation of a round and checks what
// came back.
type opFunc func(i int) error

// workloadDef is one named workload.
type workloadDef struct {
	name, why  string
	cacheNodes int
	// cacheEvicts marks a workload whose client metadata cache is smaller
	// than the tree it reads. What such a cache holds depends on the order
	// in which the two metadata daemons' concurrent replies arrive (each
	// reply's nodes enter the LRU as it lands), so the counts that follow
	// from a hit or a miss repeat closely, not exactly; see cacheOrderCounts.
	cacheEvicts bool
	// opBytes is the user payload of one op of client A and client B.
	opBytes [2]int
	// tracedOps is the fixed op count of the traced single-client pass, and
	// tracedEvery how many A ops pass between two B ops there (0: B's op is
	// the same as A's and is not run separately).
	tracedOps, tracedEvery int
	// prefill builds what the workload reads, once per set-up.
	prefill func(e *env, st *wlState) error
	// round prepares one round untimed and returns each client's op.
	round func(e *env, st *wlState, r int) ([2]opFunc, error)
}

// wlState is what prefill leaves for the rounds, and what bulk_write's
// rounds leave for the durability check.
type wlState struct {
	blob    uint64
	version uint64
	shifts  []uint16 // point_read: content generation of every chunk

	mu    sync.Mutex
	acked []ackedWrite
}

// ackedWrite is one write the system acknowledged; after a crash the latest
// version must still return it.
type ackedWrite struct {
	blob       uint64
	off, shift uint64
	size       int
}

// opRand seeds one client's op list for one round. Every list is a pure
// function of (seed, workload, round, client).
func opRand(seed uint64, workload string, round, client int) *rand.Rand {
	h := seed
	for _, c := range []byte(workload) {
		h = h*1099511628211 + uint64(c)
	}
	h = h*1099511628211 + uint64(round)*2 + uint64(client)
	return rand.New(rand.NewSource(int64(h)))
}

// roundShift moves the pattern between rounds so that a stale read of an
// earlier round's blob cannot pass verification.
func roundShift(r int) uint64 { return uint64(r+1) * 7919 }

// writeSlots is the order in which one bulk_write client visits its
// extents: ascending overall, shuffled inside windows of eight so writes
// land out of order without leaving the blob sparse.
func writeSlots(rng *rand.Rand, n int) []int {
	slots := make([]int, n)
	for i := range slots {
		slots[i] = i
	}
	for lo := 0; lo < n; lo += 8 {
		w := slots[lo:min(lo+8, n)]
		rng.Shuffle(len(w), func(i, j int) { w[i], w[j] = w[j], w[i] })
	}
	return slots
}

// alignedOffsets draws n offsets, multiples of align, such that
// [off, off+size) lies inside [0, total).
func alignedOffsets(rng *rand.Rand, n int, total, size, align uint64) []uint64 {
	slots := (total-size)/align + 1
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(rng.Int63n(int64(slots))) * align
	}
	return out
}

// opListLen is how many ops a round's list holds: more than any round can
// consume, and lists wrap if one ever does.
const opListLen = 1 << 16

var workloads = []*workloadDef{
	{
		name:      "bulk_write",
		why:       "two writers put 4 MiB chunk-aligned extents (64 x 64 KiB, repl 2) at disjoint offsets of one shared blob: data-plane write path; control plane and WALs paid once per 4 MiB",
		opBytes:   [2]int{bulkWriteSize, bulkWriteSize},
		tracedOps: 24,
		prefill:   func(e *env, st *wlState) error { return nil },
		round: func(e *env, st *wlState, r int) ([2]opFunc, error) {
			blob, err := e.clients[0].CreateBlob(bulkChunk, 2)
			if err != nil {
				return [2]opFunc{}, err
			}
			var ops [2]opFunc
			for c := range ops {
				b, err := e.clients[c].OpenBlob(blob.ID())
				if err != nil {
					return ops, err
				}
				slots := writeSlots(opRand(e.seed, "bulk_write", r, c), opListLen)
				buf := make([]byte, bulkWriteSize)
				shift := roundShift(r)
				ops[c] = func(i int) error {
					off := uint64(slots[i%len(slots)]*2+c) * bulkWriteSize
					e.pat.fill(buf, off, shift)
					if _, err := b.Write(buf, off); err != nil {
						return err
					}
					e.userBytes.Add(bulkWriteSize)
					st.mu.Lock()
					st.acked = append(st.acked, ackedWrite{blob: b.ID(), off: off, shift: shift, size: bulkWriteSize})
					st.mu.Unlock()
					return nil
				}
			}
			return ops, nil
		},
	},
	{
		name:      "bulk_read",
		why:       "two readers fetch 16 MiB ranges (256 chunks) of a prefilled repl-2 blob, metadata cache off: data-plane read path only, no WAL, no commit; a write-path change must not move it",
		opBytes:   [2]int{bulkReadSize, bulkReadSize},
		tracedOps: 24,
		prefill: func(e *env, st *wlState) error {
			return prefillBlob(e, st, bulkChunk, 2, bulkReadBlob)
		},
		round: func(e *env, st *wlState, r int) ([2]opFunc, error) {
			var ops [2]opFunc
			for c := range ops {
				b, err := e.clients[c].OpenBlob(st.blob)
				if err != nil {
					return ops, err
				}
				offs := alignedOffsets(opRand(e.seed, "bulk_read", r, c), opListLen, bulkReadBlob, bulkReadSize, bulkChunk)
				buf := make([]byte, bulkReadSize)
				ops[c] = func(i int) error {
					off := offs[i%len(offs)]
					if _, err := b.Read(st.version, buf, off); err != nil {
						return err
					}
					if !e.pat.verify(buf, off, 0) {
						return errWrongBytes
					}
					return nil
				}
			}
			return ops, nil
		},
	},
	{
		name:        "point_read",
		why:         "two readers fetch 4 KiB at uniform offsets of an 8 KiB-chunk blob whose tree is 8x the client metadata cache: descent and round trips, negligible bytes; a bandwidth change must not move it",
		cacheNodes:  pointCacheNodes,
		cacheEvicts: true,
		opBytes:     [2]int{pointReadSize, pointReadSize},
		tracedOps:   4096,
		prefill: func(e *env, st *wlState) error {
			if err := prefillBlob(e, st, pointChunk, 1, pointBlob); err != nil {
				return err
			}
			// Overwrites give the latest version real subtree sharing with
			// older ones, and the batched descent real speculation misses.
			b, err := e.clients[0].OpenBlob(st.blob)
			if err != nil {
				return err
			}
			const chunks = pointBlob / pointChunk
			st.shifts = make([]uint16, chunks)
			rng := opRand(e.seed, "point_read.prefill", 0, 0)
			buf := make([]byte, 8*pointChunk)
			for g := 1; g <= pointOverwrites; g++ {
				n := 1 + rng.Intn(8)
				first := rng.Intn(chunks - n + 1)
				off := uint64(first) * pointChunk
				p := buf[:n*pointChunk]
				e.pat.fill(p, off, uint64(g)*7919)
				v, err := b.Write(p, off)
				if err != nil {
					return fmt.Errorf("overwrite %d: %w", g, err)
				}
				e.userBytes.Add(int64(len(p)))
				st.version = v
				for i := first; i < first+n; i++ {
					st.shifts[i] = uint16(g)
				}
			}
			return nil
		},
		round: func(e *env, st *wlState, r int) ([2]opFunc, error) {
			var ops [2]opFunc
			for c := range ops {
				b, err := e.clients[c].OpenBlob(st.blob)
				if err != nil {
					return ops, err
				}
				offs := alignedOffsets(opRand(e.seed, "point_read", r, c), opListLen, pointBlob, pointReadSize, pointReadSize)
				buf := make([]byte, pointReadSize)
				ops[c] = func(i int) error {
					off := offs[i%len(offs)]
					if _, err := b.Read(st.version, buf, off); err != nil {
						return err
					}
					if !e.pat.verify(buf, off, uint64(st.shifts[off/pointChunk])*7919) {
						return errWrongBytes
					}
					return nil
				}
			}
			return ops, nil
		},
	},
	{
		name:        "append_under_read",
		why:         "client A appends one 64 KiB chunk per op while client B reads the last 1 MiB of the newest version: control plane and both fsync'd WALs per op, with readers of fresh versions beside the writer",
		cacheNodes:  appendCacheNodes,
		opBytes:     [2]int{appendChunk, appendReadSize},
		tracedOps:   256,
		tracedEvery: 8,
		prefill:     func(e *env, st *wlState) error { return nil },
		round: func(e *env, st *wlState, r int) ([2]opFunc, error) {
			var ops [2]opFunc
			blob, err := e.clients[0].CreateBlob(appendChunk, 1)
			if err != nil {
				return ops, err
			}
			shift := roundShift(r)
			abuf := make([]byte, appendChunk)
			appendOne := func(i int) error {
				want := uint64(i) * appendChunk
				e.pat.fill(abuf, want, shift)
				_, off, err := blob.Append(abuf)
				if err != nil {
					return err
				}
				e.userBytes.Add(appendChunk)
				if off != want {
					return fmt.Errorf("append %d landed at %d, want %d", i, off, want)
				}
				return nil
			}
			// Readers need something to read from the first op on.
			for i := 0; i < appendPrefill; i++ {
				if err := appendOne(i); err != nil {
					return ops, err
				}
			}
			ops[0] = func(i int) error { return appendOne(appendPrefill + i) }
			rb, err := e.clients[1].OpenBlob(blob.ID())
			if err != nil {
				return ops, err
			}
			rbuf := make([]byte, appendReadSize)
			ops[1] = func(i int) error {
				v, size, err := rb.Latest()
				if err != nil {
					return err
				}
				n := min(uint64(appendReadSize), size)
				if _, err := rb.Read(v, rbuf[:n], size-n); err != nil {
					return err
				}
				if !e.pat.verify(rbuf[:n], size-n, shift) {
					return errWrongBytes
				}
				return nil
			}
			return ops, nil
		},
	},
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// prefillBlob creates a blob and fills it with the pattern in sequential
// prefillWrite pieces, leaving its id and last version in st.
func prefillBlob(e *env, st *wlState, chunk uint64, repl uint32, size uint64) error {
	b, err := e.clients[0].CreateBlob(chunk, repl)
	if err != nil {
		return err
	}
	buf := make([]byte, prefillWrite)
	for off := uint64(0); off < size; off += prefillWrite {
		p := buf[:min(prefillWrite, size-off)]
		e.pat.fill(p, off, 0)
		v, err := b.Write(p, off)
		if err != nil {
			return fmt.Errorf("prefill at %d: %w", off, err)
		}
		e.userBytes.Add(int64(len(p)))
		st.version = v
	}
	st.blob = b.ID()
	return nil
}
