package wire_test

import (
	"bytes"
	"encoding/hex"
	"testing"

	"repro/internal/chunk"
	"repro/internal/meta"
	"repro/internal/pmanager"
	"repro/internal/provider"
	"repro/internal/vmanager"
	"repro/internal/wire"
)

// message is one wire.Message type of the system: a populated instance
// (every field set to a distinct value, so a swapped or dropped field
// shows) and a constructor for a zero one to decode into.
type message struct {
	name string
	full wire.Message
	zero func() wire.Message
}

func newOf[T any, PT interface {
	*T
	wire.Message
}]() func() wire.Message {
	return func() wire.Message { return PT(new(T)) }
}

var (
	key1 = chunk.Key{Blob: 1, Version: 2, Index: 3}
	key2 = chunk.Key{Blob: 4, Version: 5, Index: 6}
	dig1 = chunk.Digest{Algo: chunk.DigestCRC32C, Sum: 0xA1B2C3D4}
	nk1  = meta.NodeKey{Blob: 7, Version: 8, Off: 9, Size: 1}
	nk2  = meta.NodeKey{Blob: 7, Version: 8, Off: 0, Size: 16}
	wd1  = meta.WriteDesc{Version: 11, StartChunk: 12, EndChunk: 13, SizeChunks: 14, SizeBytes: 15}
	wd2  = meta.WriteDesc{Version: 21, StartChunk: 22, EndChunk: 23, SizeChunks: 24, SizeBytes: 25}
	leaf = meta.Node{Key: nk1, Leaf: true, Chunk: meta.ChunkRef{Providers: []string{"dp1", "dp22"}, Key: key1, Length: 4096}}
	node = meta.Node{Key: nk2, LeftVer: 31, RightVer: meta.ZeroVersion}
	ii1  = meta.IdentityInput{Blob: 41, Version: 42, StartChunk: 43, EndChunk: 44, SizeChunks: 45, SrcVersion: 46, SrcSizeChunks: 47}
)

func counters() *vmanager.Counters {
	var c vmanager.Counters
	for i := range c {
		c[i] = uint64(100 + i)
	}
	return &c
}

// messages lists every wire.Message type in the vmanager, meta,
// pmanager and provider packages.
func messages() []message {
	return []message{
		// vmanager
		{"vm.CreateReq", &vmanager.CreateReq{ChunkSize: 65536, Replication: 3}, newOf[vmanager.CreateReq]()},
		{"vm.CreateResp", &vmanager.CreateResp{BlobID: 9}, newOf[vmanager.CreateResp]()},
		{"vm.BlobRef", &vmanager.BlobRef{BlobID: 10}, newOf[vmanager.BlobRef]()},
		{"vm.InfoResp", &vmanager.InfoResp{ChunkSize: 1, Replication: 2, Published: 3, SizeBytes: 4, SizeChunks: 5, KeepLast: 6, RetainFrom: 7}, newOf[vmanager.InfoResp]()},
		{"vm.AssignReq", &vmanager.AssignReq{BlobID: 1, Offset: 2, Size: 3, Append: true, WantLeaseTTLMs: 5}, newOf[vmanager.AssignReq]()},
		{"vm.AssignResp", &vmanager.AssignResp{Version: 1, Offset: 2, PrevSizeBytes: 3, SizeBytes: 4, SizeChunks: 5, StartChunk: 6, EndChunk: 7,
			PubVersion: 8, PubSizeChunks: 9, LeaseTTLMs: 10, InFlight: []meta.WriteDesc{wd1, wd2}}, newOf[vmanager.AssignResp]()},
		{"vm.VersionRef", &vmanager.VersionRef{BlobID: 1, Version: 2}, newOf[vmanager.VersionRef]()},
		{"vm.AbortReq", &vmanager.AbortReq{BlobID: 1, Version: 2, Woven: true}, newOf[vmanager.AbortReq]()},
		{"vm.UnwovenResp", &vmanager.UnwovenResp{Items: []meta.IdentityInput{ii1, {Blob: 51}}}, newOf[vmanager.UnwovenResp]()},
		{"vm.VersionInfoResp", &vmanager.VersionInfoResp{SizeBytes: 1, SizeChunks: 2, Published: true, Failed: false, Reclaimed: true}, newOf[vmanager.VersionInfoResp]()},
		{"vm.LatestResp", &vmanager.LatestResp{Version: 1, SizeBytes: 2, SizeChunks: 3}, newOf[vmanager.LatestResp]()},
		{"vm.ListResp", &vmanager.ListResp{IDs: []uint64{1, 2, 1 << 40}}, newOf[vmanager.ListResp]()},
		{"vm.RetentionReq", &vmanager.RetentionReq{BlobID: 1, KeepLast: 2}, newOf[vmanager.RetentionReq]()},
		{"vm.PruneReq", &vmanager.PruneReq{BlobID: 1, UpTo: 2}, newOf[vmanager.PruneReq]()},
		{"vm.PruneResp", &vmanager.PruneResp{RetainFrom: 3}, newOf[vmanager.PruneResp]()},
		{"vm.GCStatusResp", &vmanager.GCStatusResp{Deleted: true, RetainFrom: 2, ReclaimedTo: 3, Published: 4, Assigned: 5, ChunkSize: 6,
			Replication: 7, FinishGen: 8, Versions: []meta.WriteDesc{wd2, wd1}}, newOf[vmanager.GCStatusResp]()},
		{"vm.GCReportReq", &vmanager.GCReportReq{BlobID: 1, ReclaimedTo: 2, DeletedSwept: true, FinishGen: 4, Chunks: 5, Bytes: 6, Nodes: 7, Orphans: 8}, newOf[vmanager.GCReportReq]()},
		{"vm.Counters", counters(), newOf[vmanager.Counters]()},
		{"vm.CompactResp", &vmanager.CompactResp{CompactedVersions: 1, Persistent: true}, newOf[vmanager.CompactResp]()},
		{"vm.ReplicateReq", &vmanager.ReplicateReq{Epoch: 1, Leader: "vm-a:4400", Session: 3, Seq: 4, Probe: true,
			Snapshot: []byte{5, 6, 7}, Records: [][]byte{{8}, {}, {9, 10}}}, newOf[vmanager.ReplicateReq]()},
		{"vm.ReplicateResp", &vmanager.ReplicateResp{AckSeq: 1, NeedSync: true, Fenced: false, Epoch: 4, Leader: "vm-b:4405",
			IsLeader: true, Synced: false, Session: 8, AppliedSeq: 9}, newOf[vmanager.ReplicateResp]()},
		{"vm.WhoIsLeaderResp", &vmanager.WhoIsLeaderResp{Self: "a", IsLeader: true, Leader: "bb", Epoch: 4}, newOf[vmanager.WhoIsLeaderResp]()},
		{"vm.StandbyStatus", &vmanager.StandbyStatus{Addr: "sb", Synced: true, AckSeq: 3}, newOf[vmanager.StandbyStatus]()},
		{"vm.HAStatusResp", &vmanager.HAStatusResp{Self: "a", Enabled: true, Role: "leader", Epoch: 4, Leader: "a", Session: 6, StreamSeq: 7,
			Takeovers: 8, Fences: 9, NoQuorumCommits: 10, Standbys: []vmanager.StandbyStatus{{Addr: "s1", Synced: true, AckSeq: 11}, {Addr: "s2", AckSeq: 12}}},
			newOf[vmanager.HAStatusResp]()},

		// meta
		{"meta.Node/leaf", &leaf, newOf[meta.Node]()},
		{"meta.Node/inner", &node, newOf[meta.Node]()},
		{"meta.WriteDesc", &wd1, newOf[meta.WriteDesc]()},
		{"meta.IdentityInput", &ii1, newOf[meta.IdentityInput]()},
		{"meta.PutNodesReq", &meta.PutNodesReq{Nodes: []*meta.Node{&leaf, &node}}, newOf[meta.PutNodesReq]()},
		{"meta.GetNodesReq", &meta.GetNodesReq{Keys: []meta.NodeKey{nk1, nk2}}, newOf[meta.GetNodesReq]()},
		{"meta.GetNodesResp", &meta.GetNodesResp{Nodes: []*meta.Node{&node, nil, &leaf}}, newOf[meta.GetNodesResp]()},
		{"meta.DeleteNodesReq", &meta.DeleteNodesReq{Keys: []meta.NodeKey{nk2, nk1}}, newOf[meta.DeleteNodesReq]()},
		{"meta.PatchReplicasReq", &meta.PatchReplicasReq{Patches: []meta.ReplicaPatch{
			{Key: nk1, Chunk: key1, Providers: []string{"dp3", "dp4"}}, {Key: nk2, Chunk: key2}}}, newOf[meta.PatchReplicasReq]()},
		{"meta.PatchResp", &meta.PatchResp{Patched: 5}, newOf[meta.PatchResp]()},
		{"meta.DeleteBlobReq", &meta.DeleteBlobReq{Blob: 6}, newOf[meta.DeleteBlobReq]()},
		{"meta.DeleteResp", &meta.DeleteResp{Deleted: 7}, newOf[meta.DeleteResp]()},
		{"meta.Ack", &meta.Ack{}, newOf[meta.Ack]()},

		// pmanager
		{"pm.AllocateReq", &pmanager.AllocateReq{NumChunks: 1, Replication: 2, Exclude: []string{"x", "yz"}}, newOf[pmanager.AllocateReq]()},
		{"pm.AllocateResp", &pmanager.AllocateResp{Sets: [][]string{{"a", "b"}, {}, {"c"}}}, newOf[pmanager.AllocateResp]()},
		{"pm.ProvidersResp", &pmanager.ProvidersResp{Addrs: []string{"a", "bc"}}, newOf[pmanager.ProvidersResp]()},
		{"pm.ReportResp", &pmanager.ReportResp{Providers: []pmanager.ProviderStatus{
			{Addr: "a", Chunks: 2, Bytes: 3, CapBytes: 4, FreeBytes: 5, SinceBeatMs: 6, Live: true}, {Addr: "b"}}}, newOf[pmanager.ReportResp]()},

		// provider
		{"dp.PutChunksReq", &provider.PutChunksReq{Items: []provider.PutItem{{Key: key1, Data: []byte("one"), Digest: dig1}, {Key: key2}}}, newOf[provider.PutChunksReq]()},
		{"dp.PutChunksResp", &provider.PutChunksResp{Errs: []string{"", "boom"}}, newOf[provider.PutChunksResp]()},
		{"dp.GetReq", &provider.GetReq{Key: key1, Offset: 4, Length: 5}, newOf[provider.GetReq]()},
		{"dp.GetResp", &provider.GetResp{Found: true, Data: []byte("got"), Digest: dig1}, newOf[provider.GetResp]()},
		{"dp.GetChunksReq", &provider.GetChunksReq{Keys: []chunk.Key{key1, key2}}, newOf[provider.GetChunksReq]()},
		{"dp.GetChunksResp", &provider.GetChunksResp{Found: []bool{true, false, true}, Corrupt: []bool{false, true, false},
			Data: [][]byte{[]byte("ab"), nil, []byte("c")}, Digests: []chunk.Digest{dig1, {}, {}}}, newOf[provider.GetChunksResp]()},
		{"dp.StatsResp", &provider.Counters{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}, newOf[provider.Counters]()},
		{"dp.ListChunksReq", &provider.ListChunksReq{Blob: 3}, newOf[provider.ListChunksReq]()},
		{"dp.ListChunksResp", &provider.ListChunksResp{Keys: []chunk.Key{key1, key2}, AgeMs: []uint64{100, 200}}, newOf[provider.ListChunksResp]()},
		{"dp.DeleteChunksReq", &provider.DeleteChunksReq{Keys: []chunk.Key{key2, key1}}, newOf[provider.DeleteChunksReq]()},
		{"dp.TombstonesReq", &provider.TombstonesReq{Blobs: []uint64{4, 5}}, newOf[provider.TombstonesReq]()},
		{"dp.DeleteChunksResp", &provider.DeleteChunksResp{Deleted: 1, Bytes: 2}, newOf[provider.DeleteChunksResp]()},
		{"dp.Ack", &provider.Ack{}, newOf[provider.Ack]()},
		{"dp.HeartbeatReq", &provider.HeartbeatReq{Addr: "dp1", Chunks: 2, Bytes: 3, CapBytes: 4, FreeBytes: 5}, newOf[provider.HeartbeatReq]()},
		{"dp.VerifyReq", &provider.VerifyReq{Key: key2}, newOf[provider.VerifyReq]()},
		{"dp.VerifyResp", &provider.VerifyResp{Held: true, Corrupt: false}, newOf[provider.VerifyResp]()},
		{"dp.ScrubReq", &provider.ScrubReq{Cursor: key1, Resume: true, MaxBytes: 5}, newOf[provider.ScrubReq]()},
		{"dp.ScrubResp", &provider.ScrubResp{NextCursor: key2, Done: true, Scanned: 3, Bytes: 4, Corrupt: 5, Backfilled: 6}, newOf[provider.ScrubResp]()},
		{"dp.CorruptListResp", &provider.CorruptListResp{Keys: []chunk.Key{key1}}, newOf[provider.CorruptListResp]()},
	}
}

// frozenMessages pins each message's encoding: the populated instance
// from messages(), then a zero instance.
var frozenMessages = map[string][2]string{
	"vm.CreateReq": {
		"000001000000000003000000",
		"000000000000000000000000",
	},
	"vm.CreateResp": {
		"0900000000000000",
		"0000000000000000",
	},
	"vm.BlobRef": {
		"0a00000000000000",
		"0000000000000000",
	},
	"vm.InfoResp": {
		"01000000000000000200000003000000000000000400000000000000050000000000000006000000000000000700000000000000",
		"00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
	},
	"vm.AssignReq": {
		"010000000000000002000000000000000300000000000000010500000000000000",
		"000000000000000000000000000000000000000000000000000000000000000000",
	},
	"vm.AssignResp": {
		"0100000000000000020000000000000003000000000000000400000000000000050000000000000006000000000000000700000000000000080000000000000009000000000000000a00000000000000020000000b000000000000000c000000000000000d000000000000000e000000000000000f0000000000000015000000000000001600000000000000170000000000000018000000000000001900000000000000",
		"000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
	},
	"vm.VersionRef": {
		"01000000000000000200000000000000",
		"00000000000000000000000000000000",
	},
	"vm.AbortReq": {
		"0100000000000000020000000000000001",
		"0000000000000000000000000000000000",
	},
	"vm.UnwovenResp": {
		"0200000029000000000000002a000000000000002b000000000000002c000000000000002d000000000000002e000000000000002f000000000000003300000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
		"00000000",
	},
	"vm.VersionInfoResp": {
		"01000000000000000200000000000000010001",
		"00000000000000000000000000000000000000",
	},
	"vm.LatestResp": {
		"010000000000000002000000000000000300000000000000",
		"000000000000000000000000000000000000000000000000",
	},
	"vm.ListResp": {
		"03000000010000000000000002000000000000000000000000010000",
		"00000000",
	},
	"vm.RetentionReq": {
		"01000000000000000200000000000000",
		"00000000000000000000000000000000",
	},
	"vm.PruneReq": {
		"01000000000000000200000000000000",
		"00000000000000000000000000000000",
	},
	"vm.PruneResp": {
		"0300000000000000",
		"0000000000000000",
	},
	"vm.GCStatusResp": {
		"010200000000000000030000000000000004000000000000000500000000000000060000000000000007000000080000000000000002000000150000000000000016000000000000001700000000000000180000000000000019000000000000000b000000000000000c000000000000000d000000000000000e000000000000000f00000000000000",
		"000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
	},
	"vm.GCReportReq": {
		"010000000000000002000000000000000104000000000000000500000000000000060000000000000007000000000000000800000000000000",
		"000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
	},
	"vm.Counters": {
		"6400000000000000650000000000000066000000000000006700000000000000680000000000000069000000000000006a000000000000006b000000000000006c000000000000006d000000000000006e000000000000006f0000000000000070000000000000007100000000000000720000000000000073000000000000007400000000000000750000000000000076000000000000007700000000000000780000000000000079000000000000007a000000000000007b000000000000007c000000000000007d000000000000007e000000000000007f00000000000000",
		"0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
	},
	"vm.CompactResp": {
		"010000000000000001",
		"000000000000000000",
	},
	"vm.ReplicateReq": {
		"010000000000000009000000766d2d613a343430300300000000000000040000000000000001030000000506070300000001000000080000000002000000090a",
		"00000000000000000000000000000000000000000000000000000000000000000000000000",
	},
	"vm.ReplicateResp": {
		"01000000000000000100040000000000000009000000766d2d623a34343035010008000000000000000900000000000000",
		"00000000000000000000000000000000000000000000000000000000000000000000000000000000",
	},
	"vm.WhoIsLeaderResp": {
		"0100000061010200000062620400000000000000",
		"0000000000000000000000000000000000",
	},
	"vm.StandbyStatus": {
		"020000007362010300000000000000",
		"00000000000000000000000000",
	},
	"vm.HAStatusResp": {
		"010000006101060000006c65616465720400000000000000010000006106000000000000000700000000000000080000000000000009000000000000000a0000000000000002000000020000007331010b00000000000000020000007332000c00000000000000",
		"0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
	},
	"meta.Node/leaf": {
		"0700000000000000080000000000000009000000000000000100000000000000010200000003000000647031040000006470323201000000000000000200000000000000030000000000000000100000",
		"00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
	},
	"meta.Node/inner": {
		"0700000000000000080000000000000000000000000000001000000000000000001f00000000000000ffffffffffffffff",
		"00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
	},
	"meta.WriteDesc": {
		"0b000000000000000c000000000000000d000000000000000e000000000000000f00000000000000",
		"00000000000000000000000000000000000000000000000000000000000000000000000000000000",
	},
	"meta.IdentityInput": {
		"29000000000000002a000000000000002b000000000000002c000000000000002d000000000000002e000000000000002f00000000000000",
		"0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
	},
	"meta.PutNodesReq": {
		"0200000007000000000000000800000000000000090000000000000001000000000000000102000000030000006470310400000064703232010000000000000002000000000000000300000000000000001000000700000000000000080000000000000000000000000000001000000000000000001f00000000000000ffffffffffffffff",
		"00000000",
	},
	"meta.GetNodesReq": {
		"0200000007000000000000000800000000000000090000000000000001000000000000000700000000000000080000000000000000000000000000001000000000000000",
		"00000000",
	},
	"meta.GetNodesResp": {
		"03000000010700000000000000080000000000000000000000000000001000000000000000001f00000000000000ffffffffffffffff00010700000000000000080000000000000009000000000000000100000000000000010200000003000000647031040000006470323201000000000000000200000000000000030000000000000000100000",
		"00000000",
	},
	"meta.DeleteNodesReq": {
		"0200000007000000000000000800000000000000000000000000000010000000000000000700000000000000080000000000000009000000000000000100000000000000",
		"00000000",
	},
	"meta.PatchReplicasReq": {
		"020000000700000000000000080000000000000009000000000000000100000000000000010000000000000002000000000000000300000000000000020000000300000064703303000000647034070000000000000008000000000000000000000000000000100000000000000004000000000000000500000000000000060000000000000000000000",
		"00000000",
	},
	"meta.PatchResp": {
		"0500000000000000",
		"0000000000000000",
	},
	"meta.DeleteBlobReq": {
		"0600000000000000",
		"0000000000000000",
	},
	"meta.DeleteResp": {
		"0700000000000000",
		"0000000000000000",
	},
	"meta.Ack": {
		"",
		"",
	},
	"pm.AllocateReq": {
		"010000000200000002000000010000007802000000797a",
		"000000000000000000000000",
	},
	"pm.AllocateResp": {
		"03000000020000000100000061010000006200000000010000000100000063",
		"00000000",
	},
	"pm.ProvidersResp": {
		"020000000100000061020000006263",
		"00000000",
	},
	"pm.ReportResp": {
		"020000000100000061020000000000000003000000000000000400000000000000050000000000000006000000000000000101000000620000000000000000000000000000000000000000000000000000000000000000000000000000000000",
		"00000000",
	},
	"dp.PutChunksReq": {
		"02000000010000000000000002000000000000000300000000000000030000006f6e6501d4c3b2a1040000000000000005000000000000000600000000000000000000000000000000",
		"00000000",
	},
	"dp.PutChunksResp": {
		"020000000000000004000000626f6f6d",
		"00000000",
	},
	"dp.GetReq": {
		"01000000000000000200000000000000030000000000000004000000000000000500000000000000",
		"00000000000000000000000000000000000000000000000000000000000000000000000000000000",
	},
	"dp.GetResp": {
		"0103000000676f7401d4c3b2a1",
		"00000000000000000000",
	},
	"dp.GetChunksReq": {
		"02000000010000000000000002000000000000000300000000000000040000000000000005000000000000000600000000000000",
		"00000000",
	},
	"dp.GetChunksResp": {
		"03000000010002000000616201d4c3b2a10001010001000000630000000000",
		"00000000",
	},
	"dp.StatsResp": {
		"0100000000000000020000000000000003000000000000000400000000000000050000000000000006000000000000000700000000000000080000000000000009000000000000000a000000000000000b000000000000000c000000000000000d00000000000000",
		"0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
	},
	"dp.ListChunksReq": {
		"0300000000000000",
		"0000000000000000",
	},
	"dp.ListChunksResp": {
		"020000000100000000000000020000000000000003000000000000006400000000000000040000000000000005000000000000000600000000000000c800000000000000",
		"00000000",
	},
	"dp.DeleteChunksReq": {
		"02000000040000000000000005000000000000000600000000000000010000000000000002000000000000000300000000000000",
		"00000000",
	},
	"dp.TombstonesReq": {
		"0200000004000000000000000500000000000000",
		"00000000",
	},
	"dp.DeleteChunksResp": {
		"01000000000000000200000000000000",
		"00000000000000000000000000000000",
	},
	"dp.Ack": {
		"",
		"",
	},
	"dp.HeartbeatReq": {
		"030000006470310200000000000000030000000000000004000000000000000500000000000000",
		"000000000000000000000000000000000000000000000000000000000000000000000000",
	},
	"dp.VerifyReq": {
		"040000000000000005000000000000000600000000000000",
		"000000000000000000000000000000000000000000000000",
	},
	"dp.VerifyResp": {
		"0100",
		"0000",
	},
	"dp.ScrubReq": {
		"010000000000000002000000000000000300000000000000010500000000000000",
		"000000000000000000000000000000000000000000000000000000000000000000",
	},
	"dp.ScrubResp": {
		"040000000000000005000000000000000600000000000000010300000000000000040000000000000005000000000000000600000000000000",
		"000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
	},
	"dp.CorruptListResp": {
		"01000000010000000000000002000000000000000300000000000000",
		"00000000",
	},
}

// TestMessagesWireFrozen pins the bytes of every message: a populated and
// a zero instance must encode to their frozen hex, and decoding that hex
// must encode back to it.
func TestMessagesWireFrozen(t *testing.T) {
	for _, m := range messages() {
		t.Run(m.name, func(t *testing.T) {
			want, ok := frozenMessages[m.name]
			if !ok {
				t.Fatalf("no frozen encoding for %s", m.name)
			}
			for i, msg := range []wire.Message{m.full, m.zero()} {
				got := wire.Marshal(msg)
				if h := hex.EncodeToString(got); h != want[i] {
					t.Fatalf("instance %d encodes as\n%s\nwant\n%s", i, h, want[i])
				}
				back := m.zero()
				if err := wire.Unmarshal(got, back); err != nil {
					t.Fatalf("instance %d: %v", i, err)
				}
				if again := wire.Marshal(back); !bytes.Equal(again, got) {
					t.Fatalf("instance %d re-encodes as %x after a decode, want %x", i, again, got)
				}
			}
		})
	}
}

// TestSegmentsMatchMarshal: an encoder that references every Bytes field
// (ReferenceFrom(1)) holds, as its segments, exactly the bytes Marshal
// writes, for every message — alone and wrapped by PutMessage, whose
// length prefix must count the referenced bytes.
func TestSegmentsMatchMarshal(t *testing.T) {
	flat := func(e *wire.Encoder) []byte {
		var b []byte
		for _, s := range e.Segments() {
			b = append(b, s...)
		}
		return b
	}
	referenced := 0
	for _, m := range messages() {
		t.Run(m.name, func(t *testing.T) {
			for i, msg := range []wire.Message{m.full, m.zero()} {
				want := wire.Marshal(msg)
				e := wire.NewEncoder(0)
				e.ReferenceFrom(1)
				msg.Encode(e)
				if got := flat(e); !bytes.Equal(got, want) || e.Len() != len(want) {
					t.Fatalf("instance %d: segments hold %x (Len %d), want %x", i, got, e.Len(), want)
				}
				if len(e.Segments()) > 1 {
					referenced++
				}
				framed := wire.NewEncoder(0)
				framed.PutBytes(want)
				e.Reset()
				e.PutMessage(msg)
				if got := flat(e); !bytes.Equal(got, framed.Bytes()) {
					t.Fatalf("instance %d: PutMessage segments hold %x, want %x", i, got, framed.Bytes())
				}
			}
		})
	}
	if referenced < 3 {
		t.Fatalf("only %d messages referenced a field; the payload-carrying ones must", referenced)
	}
}

// FuzzMessageRoundTrip feeds arbitrary bytes to Unmarshal for every
// message type. No input may panic, and whatever decodes must be a fixed
// point of Marshal→Unmarshal→Marshal. The seeds are the frozen encodings,
// each also one byte short, so every decoder's truncated-body path is in
// the corpus.
func FuzzMessageRoundTrip(f *testing.F) {
	for _, enc := range frozenMessages {
		for _, h := range enc {
			b, err := hex.DecodeString(h)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(b)
			if len(b) > 0 {
				f.Add(b[:len(b)-1])
			}
		}
	}
	f.Add([]byte{1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	msgs := messages()
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, m := range msgs {
			first := m.zero()
			if wire.Unmarshal(data, first) != nil {
				continue
			}
			once := wire.Marshal(first)
			second := m.zero()
			if err := wire.Unmarshal(once, second); err != nil {
				t.Fatalf("%s: re-decoding its own encoding %x: %v", m.name, once, err)
			}
			if twice := wire.Marshal(second); !bytes.Equal(twice, once) {
				t.Fatalf("%s: encodes as %x, then as %x after a round trip", m.name, once, twice)
			}
		}
	})
}
