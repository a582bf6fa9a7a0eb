package wire

import (
	"encoding/binary"
	"fmt"
)

// Request frames: the client side of the raw TCP transport
// (internal/framesrv). They share the response framing — magic, type,
// reserved-zero bytes, length prefix, CRC — but live in a disjoint type
// range and are decoded only by DecodeRequest, so a server never
// misparses a response (or vice versa) as anything but a protocol error.
//
// Payloads (little-endian, like the responses):
//
//	reqsnapshot:  [1] includeCliques (0 = lean header only, 1 = full)
//	reqclique:    [4] node
//	reqcliques:   [4] count, count × [4] node
//	reqstats:     empty
//	reqsubscribe: empty — the connection becomes a push stream of delta
//	              frames, starting from the empty base (version 0), so
//	              the first delta carries the whole current snapshot
//
// Every request type above may carry an OPTIONAL tenant suffix after
// its base payload: [1] tlen (1–64), tlen × name bytes (charset
// [a-z0-9._-], not starting with '.' or '-' — the manager's tenant-name
// rules). The suffix is version-gated by length: the base layouts are
// exact-length, so a frame without the suffix decodes exactly as it did
// before multi-tenancy and old clients interoperate unchanged; a server
// without a tenant manager treats a named frame as an unknown tenant.
// Replicate frames (FrameReqReplicate) take no tenant — replication is
// wired to the default tenant.
const (
	// FrameReqSnapshot asks for a snapshot frame (full or lean).
	FrameReqSnapshot FrameType = 16
	// FrameReqClique asks for one point lookup.
	FrameReqClique FrameType = 17
	// FrameReqCliques asks for a batched lookup over many nodes.
	FrameReqCliques FrameType = 18
	// FrameReqStats asks for the service and engine counters.
	FrameReqStats FrameType = 19
	// FrameReqSubscribe turns the connection into a delta push stream.
	FrameReqSubscribe FrameType = 20
)

// MaxTenantLen bounds the tenant-name suffix on request frames.
const MaxTenantLen = 64

// appendTenant appends the optional tenant suffix; "" appends nothing,
// producing the pre-multi-tenant frame byte-for-byte. Oversized names
// are truncated rather than panicking — the server rejects them as
// unknown; encode callers validate names before they get here.
func appendTenant(b []byte, tenant string) []byte {
	if tenant == "" {
		return b
	}
	if len(tenant) > MaxTenantLen {
		tenant = tenant[:MaxTenantLen]
	}
	b = append(b, byte(len(tenant)))
	return append(b, tenant...)
}

// splitTenant splits an optional tenant suffix off a request payload:
// it returns the base payload and the tenant name ("" when the suffix
// is absent). base reports how many bytes the type's fixed layout
// consumed; anything after it must be a well-formed suffix.
func splitTenant(p []byte, base int) ([]byte, string, error) {
	if len(p) == base {
		return p, "", nil
	}
	rest := p[base:]
	tlen := int(rest[0])
	if tlen == 0 || tlen > MaxTenantLen {
		return nil, "", fmt.Errorf("wire: tenant name length %d out of range [1,%d]", tlen, MaxTenantLen)
	}
	if len(rest) != 1+tlen {
		return nil, "", fmt.Errorf("wire: %d trailing bytes for a tenant suffix of %d", len(rest), 1+tlen)
	}
	name := rest[1:]
	if name[0] == '.' || name[0] == '-' {
		return nil, "", fmt.Errorf("wire: tenant name starts with %q", name[0])
	}
	for _, c := range name {
		if c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '.' || c == '_' || c == '-' {
			continue
		}
		return nil, "", fmt.Errorf("wire: tenant name byte %#x outside [a-z0-9._-]", c)
	}
	return p[:base], string(name), nil
}

// AppendSnapshotRequest appends a snapshot request; include selects the
// full member list over the lean header-only variant. tenant targets a
// named tenant; "" targets the server's default.
func AppendSnapshotRequest(b []byte, include bool, tenant string) []byte {
	b, mark := beginFrame(b, FrameReqSnapshot)
	if include {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = appendTenant(b, tenant)
	return endFrame(b, mark)
}

// AppendCliqueRequest appends a point-lookup request for one node.
func AppendCliqueRequest(b []byte, node int32, tenant string) []byte {
	b, mark := beginFrame(b, FrameReqClique)
	b = binary.LittleEndian.AppendUint32(b, uint32(node))
	b = appendTenant(b, tenant)
	return endFrame(b, mark)
}

// AppendCliquesRequest appends a batched-lookup request resolving nodes
// against one snapshot.
func AppendCliquesRequest(b []byte, nodes []int32, tenant string) []byte {
	b, mark := beginFrame(b, FrameReqCliques)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(nodes)))
	b = appendMembers(b, nodes)
	b = appendTenant(b, tenant)
	return endFrame(b, mark)
}

// AppendStatsRequest appends a stats request.
func AppendStatsRequest(b []byte, tenant string) []byte {
	b, mark := beginFrame(b, FrameReqStats)
	b = appendTenant(b, tenant)
	return endFrame(b, mark)
}

// AppendSubscribeRequest appends a subscribe request. After answering
// it the server pushes delta frames until the connection closes; any
// frame the client sends after it is a protocol error.
func AppendSubscribeRequest(b []byte, tenant string) []byte {
	b, mark := beginFrame(b, FrameReqSubscribe)
	b = appendTenant(b, tenant)
	return endFrame(b, mark)
}

// DecodeRequest parses the first request frame of data, with the same
// contract as Decode: it never panics, a frame cut short returns
// ErrShort, anything structurally invalid — including a well-formed
// response frame — returns a permanent error. Decoded slices are fresh
// copies, independent of data.
func DecodeRequest(data []byte) (*Frame, int, error) {
	typ, payload, n, err := decodeHeader(data)
	if err != nil {
		return nil, 0, err
	}
	f := &Frame{Type: typ}
	switch typ {
	case FrameReqSnapshot:
		err = f.decodeSnapshotRequest(payload)
	case FrameReqClique:
		err = f.decodeCliqueRequest(payload)
	case FrameReqCliques:
		err = f.decodeCliquesRequest(payload)
	case FrameReqStats, FrameReqSubscribe:
		if payload, f.Tenant, err = splitTenant(payload, 0); err == nil && len(payload) != 0 {
			err = fmt.Errorf("wire: %d payload bytes on a bodyless request", len(payload))
		}
	case FrameReqReplicate:
		err = f.decodeReplicateRequest(payload)
	default:
		err = fmt.Errorf("wire: unknown request frame type %d", typ)
	}
	if err != nil {
		return nil, 0, err
	}
	return f, n, nil
}

func (f *Frame) decodeSnapshotRequest(p []byte) error {
	if len(p) < 1 {
		return fmt.Errorf("wire: snapshot request payload of %d bytes, want >= 1", len(p))
	}
	var err error
	if p, f.Tenant, err = splitTenant(p, 1); err != nil {
		return err
	}
	switch p[0] {
	case 0:
	case 1:
		f.HasCliques = true
	default:
		return fmt.Errorf("wire: snapshot request include flag is %d", p[0])
	}
	return nil
}

func (f *Frame) decodeCliqueRequest(p []byte) error {
	if len(p) < 4 {
		return fmt.Errorf("wire: clique request payload of %d bytes, want >= 4", len(p))
	}
	var err error
	if p, f.Tenant, err = splitTenant(p, 4); err != nil {
		return err
	}
	f.Node = int32(binary.LittleEndian.Uint32(p))
	return nil
}

func (f *Frame) decodeCliquesRequest(p []byte) error {
	if len(p) < 4 {
		return fmt.Errorf("wire: batched request payload of %d bytes below the fixed part", len(p))
	}
	n := int(int32(binary.LittleEndian.Uint32(p[0:4])))
	if n < 0 {
		return fmt.Errorf("wire: negative batched request count")
	}
	if 4+4*int64(n) > int64(len(p)) {
		return fmt.Errorf("wire: %d node bytes for a batch of %d", len(p)-4, n)
	}
	var err error
	if p, f.Tenant, err = splitTenant(p, 4+4*n); err != nil {
		return err
	}
	f.Queried = decodeIDs(p[4:], n)
	return nil
}
