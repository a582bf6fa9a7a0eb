package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// binaryMagic identifies the binary graph format; last byte is a version.
var binaryMagic = [8]byte{'D', 'K', 'C', 'Q', 'G', 'R', 'B', '1'}

// WriteBinary emits a compact binary encoding of the graph (little-endian
// CSR dump): loading it back is an order of magnitude faster than parsing
// an edge-list text file for multi-million-edge graphs.
func WriteBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, int64(g.N())); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, g.offsets); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, g.adj); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadBinary parses a WriteBinary stream and validates its invariants
// (monotone offsets, sorted symmetric adjacency ranges).
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("graph: binary header: %w", err)
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("graph: not a binary graph (magic %q)", magic)
	}
	var n int64
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("graph: binary header: %w", err)
	}
	if n < 0 || n > 1<<31 {
		return nil, fmt.Errorf("graph: implausible node count %d", n)
	}
	offsets := make([]int64, n+1)
	if err := binary.Read(br, binary.LittleEndian, offsets); err != nil {
		return nil, fmt.Errorf("graph: binary offsets: %w", err)
	}
	if offsets[0] != 0 {
		return nil, fmt.Errorf("graph: offsets must start at 0")
	}
	for i := 1; i <= int(n); i++ {
		if offsets[i] < offsets[i-1] {
			return nil, fmt.Errorf("graph: offsets not monotone at %d", i)
		}
	}
	total := offsets[n]
	if total < 0 || total%2 != 0 || total > 1<<34 {
		return nil, fmt.Errorf("graph: implausible adjacency length %d", total)
	}
	adj := make([]int32, total)
	if err := binary.Read(br, binary.LittleEndian, adj); err != nil {
		return nil, fmt.Errorf("graph: binary adjacency: %w", err)
	}
	g := &Graph{offsets: offsets, adj: adj}
	// Validate: sorted, in-range, no self-loops, symmetric.
	for u := int32(0); int64(u) < n; u++ {
		nb := g.Neighbors(u)
		for i, v := range nb {
			if v < 0 || int64(v) >= n {
				return nil, fmt.Errorf("graph: node %d has out-of-range neighbour %d", u, v)
			}
			if v == u {
				return nil, fmt.Errorf("graph: self-loop at %d", u)
			}
			if i > 0 && nb[i-1] >= v {
				return nil, fmt.Errorf("graph: adjacency of %d not strictly sorted", u)
			}
			if !g.HasEdge(v, u) {
				return nil, fmt.Errorf("graph: asymmetric edge (%d,%d)", u, v)
			}
		}
	}
	return g, nil
}

// BinarySize returns the exact byte length of WriteBinary's output for
// the graph's current topology.
func (d *Dynamic) BinarySize() int64 {
	return int64(len(binaryMagic)) + 8 + 8*int64(d.N()+1) + 4*int64(2*d.m)
}

// WriteBinary writes the same bytes as WriteBinary(w, d.Snapshot())
// straight from the rows, through one reused scratch buffer instead of
// a CSR copy of the graph. w should be buffered.
func (d *Dynamic) WriteBinary(w io.Writer) error {
	const flushAt = 32 << 10
	n := d.N()
	buf := make([]byte, 0, flushAt+64)
	buf = append(buf, binaryMagic[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(n))
	var pos uint64
	for u := 0; u <= n; u++ {
		buf = binary.LittleEndian.AppendUint64(buf, pos)
		if u < n {
			pos += uint64(len(d.adj[u]))
		}
		if len(buf) >= flushAt {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	for _, row := range d.adj {
		for _, v := range row {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		}
		if len(buf) >= flushAt {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	_, err := w.Write(buf)
	return err
}
