package wire

import (
	"encoding/binary"
	"fmt"
)

// Replication frames: the log-shipping protocol of internal/repl rides
// the same frame transport as the read protocol. A follower opens a
// connection with one FrameReqReplicate request (carrying the epoch and
// version it last applied); the primary answers with an optional
// checkpoint install followed by a continuous stream of batch and boundary
// frames. Every primary→follower frame carries the primary's epoch so a
// follower can fence off a deposed primary on any frame, not just the
// handshake.
//
// Payloads (little-endian, like everything else in this package):
//
//	replckpt:     [8] epoch, [8] version, then the opaque engine
//	              checkpoint bytes (dynamic.WriteCheckpoint output); the
//	              follower rebuilds its engine from them and is then
//	              positioned exactly at version
//	replbatch:    [8] epoch, [8] version (the version applying the batch
//	              produces), [4] op count C, C × ([1] insert flag, [4] u,
//	              [4] v) — the exact op sequence of one primary
//	              ApplyBatch call; the follower must apply it as one
//	              batch, not coalesce or split it
//	replboundary: [8] epoch, [8] version — the primary checkpointed at
//	              version; a durable follower checkpoints its own store
//	              there, and every follower checks that its engine is at
//	              the same version
//	reqreplicate: [8] last epoch, [8] last applied version,
//	              [1] haveState flag (0 = fresh follower wanting a full
//	              install, 1 = resume from version if the primary still
//	              holds the suffix), [1] ReplProtocol
const (
	// FrameReplCheckpoint carries a full engine checkpoint install.
	FrameReplCheckpoint FrameType = 7
	// FrameReplBatch carries one shipped WAL batch.
	FrameReplBatch FrameType = 8
	// FrameReplBoundary marks a checkpoint boundary.
	FrameReplBoundary FrameType = 9
	// FrameReqReplicate opens a replication stream (request direction).
	FrameReqReplicate FrameType = 21
)

// ReplProtocol is the replication protocol version a follower states in
// its handshake; a primary accepts only its own. It changes whenever the
// same batch stream could take two releases' engines to different states,
// so a primary and a follower that would diverge refuse each other
// instead. Version 2: swap ties break by clique content, not candidate id
// (version 1 requests carry no protocol byte).
const ReplProtocol = 2

// EdgeOp is one edge update of a shipped batch. It mirrors workload.Op
// structurally; wire cannot import workload (workload imports wire), so
// the conversion happens at the repl layer.
type EdgeOp struct {
	Insert bool
	U, V   int32
}

// replBatchFixed is the fixed part of a batch payload (epoch, version,
// op count); each op adds edgeOpSize bytes.
const (
	replBatchFixed = 20
	edgeOpSize     = 9
)

// AppendReplCheckpointFrame appends a checkpoint-install frame. data is
// the opaque engine checkpoint the follower loads; version is the
// snapshot version the checkpoint is at.
func AppendReplCheckpointFrame(b []byte, epoch, version uint64, data []byte) []byte {
	b, mark := beginFrame(b, FrameReplCheckpoint)
	b = binary.LittleEndian.AppendUint64(b, epoch)
	b = binary.LittleEndian.AppendUint64(b, version)
	b = append(b, data...)
	return endFrame(b, mark)
}

// AppendReplBatchFrame appends one shipped batch; version is the
// snapshot version the primary's engine reached by applying it.
func AppendReplBatchFrame(b []byte, epoch, version uint64, ops []EdgeOp) []byte {
	b, mark := beginFrame(b, FrameReplBatch)
	b = binary.LittleEndian.AppendUint64(b, epoch)
	b = binary.LittleEndian.AppendUint64(b, version)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ops)))
	for _, op := range ops {
		flag := byte(0)
		if op.Insert {
			flag = 1
		}
		b = append(b, flag)
		b = binary.LittleEndian.AppendUint32(b, uint32(op.U))
		b = binary.LittleEndian.AppendUint32(b, uint32(op.V))
	}
	return endFrame(b, mark)
}

// AppendReplBoundaryFrame appends a checkpoint-boundary marker: the
// primary checkpointed with its engine at version.
func AppendReplBoundaryFrame(b []byte, epoch, version uint64) []byte {
	b, mark := beginFrame(b, FrameReplBoundary)
	b = binary.LittleEndian.AppendUint64(b, epoch)
	b = binary.LittleEndian.AppendUint64(b, version)
	return endFrame(b, mark)
}

// AppendReplicateRequest appends the replication handshake request:
// the follower's last accepted epoch and applied version, and whether
// it holds state at that version (haveState=false forces a full
// checkpoint install), stating this build's ReplProtocol.
func AppendReplicateRequest(b []byte, lastEpoch, lastVersion uint64, haveState bool) []byte {
	b, mark := beginFrame(b, FrameReqReplicate)
	b = binary.LittleEndian.AppendUint64(b, lastEpoch)
	b = binary.LittleEndian.AppendUint64(b, lastVersion)
	if haveState {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = append(b, ReplProtocol)
	return endFrame(b, mark)
}

func (f *Frame) decodeReplCheckpoint(p []byte) error {
	if len(p) < 16 {
		return fmt.Errorf("wire: repl checkpoint payload of %d bytes below the fixed part", len(p))
	}
	f.Epoch = binary.LittleEndian.Uint64(p[0:8])
	f.Version = binary.LittleEndian.Uint64(p[8:16])
	// The checkpoint bytes are opaque here; dynamic.LoadCheckpoint does
	// its own validation. Copy them out so the frame outlives the buffer.
	f.Checkpoint = append([]byte(nil), p[16:]...)
	return nil
}

func (f *Frame) decodeReplBatch(p []byte) error {
	if len(p) < replBatchFixed {
		return fmt.Errorf("wire: repl batch payload of %d bytes below the fixed part", len(p))
	}
	f.Epoch = binary.LittleEndian.Uint64(p[0:8])
	f.Version = binary.LittleEndian.Uint64(p[8:16])
	count := int(int32(binary.LittleEndian.Uint32(p[16:20])))
	if count < 0 {
		return fmt.Errorf("wire: negative repl batch op count")
	}
	rest := p[replBatchFixed:]
	if int64(len(rest)) != edgeOpSize*int64(count) {
		return fmt.Errorf("wire: %d op bytes for a repl batch of %d", len(rest), count)
	}
	f.ReplOps = make([]EdgeOp, count)
	for i := range f.ReplOps {
		rec := rest[i*edgeOpSize:]
		op := EdgeOp{
			Insert: rec[0] == 1,
			U:      int32(binary.LittleEndian.Uint32(rec[1:5])),
			V:      int32(binary.LittleEndian.Uint32(rec[5:9])),
		}
		// The primary only ships validated edge ops; hold shipped batches
		// to the WAL replay discipline so corruption cannot reach an
		// engine (which panics on out-of-range ids by design).
		if rec[0] > 1 || op.U < 0 || op.V < 0 || op.U == op.V {
			return fmt.Errorf("wire: repl batch op %d is not a valid edge op", i)
		}
		f.ReplOps[i] = op
	}
	return nil
}

func (f *Frame) decodeReplBoundary(p []byte) error {
	if len(p) != 16 {
		return fmt.Errorf("wire: repl boundary payload of %d bytes, want 16", len(p))
	}
	f.Epoch = binary.LittleEndian.Uint64(p[0:8])
	f.Version = binary.LittleEndian.Uint64(p[8:16])
	return nil
}

func (f *Frame) decodeReplicateRequest(p []byte) error {
	if len(p) != 18 {
		return fmt.Errorf("wire: replicate request payload of %d bytes, want 18 (replication protocol %d)", len(p), ReplProtocol)
	}
	if p[17] != ReplProtocol {
		return fmt.Errorf("wire: replication protocol %d, want %d", p[17], ReplProtocol)
	}
	f.Epoch = binary.LittleEndian.Uint64(p[0:8])
	f.Version = binary.LittleEndian.Uint64(p[8:16])
	switch p[16] {
	case 0:
	case 1:
		f.HaveState = true
	default:
		return fmt.Errorf("wire: replicate request haveState flag is %d", p[16])
	}
	return nil
}
