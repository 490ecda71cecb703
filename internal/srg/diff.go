package srg

import (
	"encoding/binary"
	"fmt"
)

// Graph diffs are what a resident step plan sends instead of the graph
// (DESIGN.md §11): the loop that captures a decode step produces the same
// graph call after call except for a few node fields that follow the
// history length. A node's *structure* — op, ref, module, phase,
// residency, modality, inputs, attribute keys, output dtype and rank —
// plus the graph's name, node count and edge annotations must match for
// a diff to exist; the *patchable* fields are the output dims, the cost
// hints and the attribute values. Cost.FLOPs is compared and shipped as
// the wire format's int64, so a patched graph equals the decoded one.
//
// Layout (little-endian): u32 count | count × patch, ascending by node.
// A patch: u32 node | u8 fields | [u8 rank | rank×u32 dims] |
// [i64 flops | i64 bytes] | [u16 n | n×str16 values, by ascending key].

const (
	patchShape byte = 1 << iota
	patchCost
	patchAttrs
)

// attrKeys appends m's keys to buf in ascending order. Attribute maps
// hold a handful of keys, so an insertion sort beats sort.Strings and
// allocates nothing when buf has room.
func attrKeys(m map[string]string, buf []string) []string {
	for k := range m {
		i := len(buf)
		buf = append(buf, k)
		for ; i > 0 && buf[i] < buf[i-1]; i-- {
			buf[i], buf[i-1] = buf[i-1], buf[i]
		}
	}
	return buf
}

// sameStructure reports whether b can be reached from a by patching.
func sameStructure(a, b *Node) bool {
	if a.Op != b.Op || a.Ref != b.Ref || a.Module != b.Module || a.Phase != b.Phase ||
		a.Residency != b.Residency || a.Modality != b.Modality ||
		a.Output.DType != b.Output.DType || len(a.Output.Shape) != len(b.Output.Shape) ||
		len(a.Inputs) != len(b.Inputs) || len(a.Attrs) != len(b.Attrs) {
		return false
	}
	for i, in := range a.Inputs {
		if b.Inputs[i] != in {
			return false
		}
	}
	for k := range a.Attrs {
		if _, ok := b.Attrs[k]; !ok {
			return false
		}
	}
	return true
}

// sameEdges reports whether two graphs carry identical edge annotations.
func sameEdges(a, b *Graph) bool {
	if len(a.edgeRate) != len(b.edgeRate) || len(a.edgeCritical) != len(b.edgeCritical) {
		return false
	}
	for k, r := range a.edgeRate {
		if br, ok := b.edgeRate[k]; !ok || br != r {
			return false
		}
	}
	for k, c := range a.edgeCritical {
		if bc, ok := b.edgeCritical[k]; !ok || bc != c {
			return false
		}
	}
	return true
}

// AppendDiff appends to dst the patches that turn base into next and
// reports true, or reports false (dst unchanged) when the two differ in
// structure and next must travel whole. Neither graph is written.
func AppendDiff(dst []byte, base, next *Graph) ([]byte, bool) {
	if base.Name != next.Name || len(base.nodes) != len(next.nodes) || !sameEdges(base, next) {
		return dst, false
	}
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, 0)
	var count uint32
	var kbuf [8]string
	for i, n := range next.nodes {
		o := base.nodes[i]
		if !sameStructure(o, n) {
			return dst[:start], false
		}
		var fields byte
		for d, v := range n.Output.Shape {
			if o.Output.Shape[d] != v {
				fields |= patchShape
				break
			}
		}
		if int64(o.Cost.FLOPs) != int64(n.Cost.FLOPs) || o.Cost.Bytes != n.Cost.Bytes {
			fields |= patchCost
		}
		for k, v := range n.Attrs {
			if len(v) > 0xffff {
				return dst[:start], false // the full encoding reports it
			}
			if o.Attrs[k] != v {
				fields |= patchAttrs
			}
		}
		if fields == 0 {
			continue
		}
		count++
		dst = binary.LittleEndian.AppendUint32(dst, uint32(i))
		dst = append(dst, fields)
		if fields&patchShape != 0 {
			dst = append(dst, byte(len(n.Output.Shape)))
			for _, v := range n.Output.Shape {
				dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
			}
		}
		if fields&patchCost != 0 {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(n.Cost.FLOPs)))
			dst = binary.LittleEndian.AppendUint64(dst, uint64(n.Cost.Bytes))
		}
		if fields&patchAttrs != 0 {
			dst = binary.LittleEndian.AppendUint16(dst, uint16(len(n.Attrs)))
			for _, k := range attrKeys(n.Attrs, kbuf[:0]) {
				v := n.Attrs[k]
				dst = binary.LittleEndian.AppendUint16(dst, uint16(len(v)))
				dst = append(dst, v...)
			}
		}
	}
	binary.LittleEndian.PutUint32(dst[start:], count)
	return dst, true
}

// ApplyDiff patches g in place with a diff AppendDiff produced against a
// graph of g's structure. Malformed input — a node out of range or out
// of order, a rank or attribute count that is not the node's, a short or
// over-long buffer — is an error, never a panic; after an error g may be
// half patched and must be discarded.
func (g *Graph) ApplyDiff(p []byte) error {
	off := 0
	take := func(n int) []byte {
		if n < 0 || len(p)-off < n {
			return nil
		}
		off += n
		return p[off-n : off]
	}
	short := func() error { return fmt.Errorf("srg: diff truncated at offset %d of %d", off, len(p)) }
	hdr := take(4)
	if hdr == nil {
		return short()
	}
	count := binary.LittleEndian.Uint32(hdr)
	prev := -1
	var kbuf [8]string
	for ; count > 0; count-- {
		h := take(5)
		if h == nil {
			return short()
		}
		id, fields := int(binary.LittleEndian.Uint32(h)), h[4]
		if id <= prev || id >= len(g.nodes) {
			return fmt.Errorf("srg: diff patches node %d after %d in a graph of %d", id, prev, len(g.nodes))
		}
		if fields == 0 || fields&^(patchShape|patchCost|patchAttrs) != 0 {
			return fmt.Errorf("srg: diff of node %d names fields %#x", id, fields)
		}
		prev = id
		n := g.nodes[id]
		if fields&patchShape != 0 {
			rank := take(1)
			if rank == nil {
				return short()
			}
			if int(rank[0]) != len(n.Output.Shape) {
				return fmt.Errorf("srg: diff gives node %d rank %d, it has %d", id, rank[0], len(n.Output.Shape))
			}
			dims := take(4 * len(n.Output.Shape))
			if dims == nil {
				return short()
			}
			for d := range n.Output.Shape {
				n.Output.Shape[d] = int(binary.LittleEndian.Uint32(dims[4*d:]))
			}
		}
		if fields&patchCost != 0 {
			c := take(16)
			if c == nil {
				return short()
			}
			n.Cost.FLOPs = float64(int64(binary.LittleEndian.Uint64(c)))
			n.Cost.Bytes = int64(binary.LittleEndian.Uint64(c[8:]))
		}
		if fields&patchAttrs != 0 {
			cnt := take(2)
			if cnt == nil {
				return short()
			}
			if int(binary.LittleEndian.Uint16(cnt)) != len(n.Attrs) {
				return fmt.Errorf("srg: diff gives node %d %d attributes, it has %d",
					id, binary.LittleEndian.Uint16(cnt), len(n.Attrs))
			}
			for _, k := range attrKeys(n.Attrs, kbuf[:0]) {
				l := take(2)
				if l == nil {
					return short()
				}
				v := take(int(binary.LittleEndian.Uint16(l)))
				if v == nil {
					return short()
				}
				n.Attrs[k] = string(v)
			}
		}
	}
	if off != len(p) {
		return fmt.Errorf("srg: %d bytes after the diff's last patch", len(p)-off)
	}
	return nil
}
