package srg

import (
	"fmt"

	"genie/internal/codec"
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
	w := codec.Writer{B: dst}
	w.U32(0)
	var count uint32
	var kbuf [8]string
	for i, n := range next.nodes {
		o := base.nodes[i]
		if !sameStructure(o, n) {
			return dst, false
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
			if o.Attrs[k] != v {
				fields |= patchAttrs
			}
		}
		if fields == 0 {
			continue
		}
		count++
		w.U32(uint32(i))
		w.U8(fields)
		if fields&patchShape != 0 {
			w.U8(byte(len(n.Output.Shape)))
			for _, v := range n.Output.Shape {
				w.U32(uint32(v))
			}
		}
		if fields&patchCost != 0 {
			w.U64(uint64(int64(n.Cost.FLOPs)))
			w.U64(uint64(n.Cost.Bytes))
		}
		if fields&patchAttrs != 0 {
			w.U16(uint16(len(n.Attrs)))
			for _, k := range attrKeys(n.Attrs, kbuf[:0]) {
				w.Str(n.Attrs[k])
			}
		}
	}
	if w.Err() != nil {
		return dst, false // an over-long value: the full encoding reports it
	}
	w.SetU32(len(dst), count)
	return w.B, true
}

// ApplyDiff patches g in place with a diff AppendDiff produced against a
// graph of g's structure. Malformed input — a node out of range or out
// of order, a rank or attribute count that is not the node's, a short or
// over-long buffer — is an error, never a panic; after an error g may be
// half patched and must be discarded.
func (g *Graph) ApplyDiff(p []byte) error {
	r := codec.NewReader(p)
	prev := -1
	var kbuf [8]string
	for count := r.U32(); count > 0 && r.Err() == nil; count-- {
		id, fields := int(r.U32()), r.U8()
		if r.Err() != nil {
			break
		}
		if id <= prev || id >= len(g.nodes) {
			return fmt.Errorf("srg: diff patches node %d after %d in a graph of %d", id, prev, len(g.nodes))
		}
		if fields == 0 || fields&^(patchShape|patchCost|patchAttrs) != 0 {
			return fmt.Errorf("srg: diff of node %d names fields %#x", id, fields)
		}
		prev = id
		n := g.nodes[id]
		if fields&patchShape != 0 {
			if rank := r.U8(); int(rank) != len(n.Output.Shape) && r.Err() == nil {
				return fmt.Errorf("srg: diff gives node %d rank %d, it has %d", id, rank, len(n.Output.Shape))
			}
			for d := range n.Output.Shape {
				n.Output.Shape[d] = int(r.U32())
			}
		}
		if fields&patchCost != 0 {
			n.Cost.FLOPs = float64(int64(r.U64()))
			n.Cost.Bytes = int64(r.U64())
		}
		if fields&patchAttrs != 0 {
			if cnt := int(r.U16()); cnt != len(n.Attrs) && r.Err() == nil {
				return fmt.Errorf("srg: diff gives node %d %d attributes, it has %d", id, cnt, len(n.Attrs))
			}
			for _, k := range attrKeys(n.Attrs, kbuf[:0]) {
				n.Attrs[k] = r.Str()
			}
		}
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("srg: diff: %w", err)
	}
	if r.Len() != 0 {
		return fmt.Errorf("srg: %d bytes after the diff's last patch", r.Len())
	}
	return nil
}
