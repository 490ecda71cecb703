package srg

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// The binary encoding is the SRG's wire format: it is what a Genie client
// ships to a global scheduler (§3.6) and to a backend in every
// execution. Layout (little-endian):
//
//	magic "SRG1" | u16 nameLen | name | u32 nodeCount | nodes… |
//	u32 edgeAnnCount | edge annotations…
//
// Each node: u32 id | str op | str ref | str module | str phase |
// u8 residency | str modality | f64 flops | i64 bytes | u8 dtype |
// u8 rank | rank×u32 dims | u32 nIn | nIn×u32 inputs |
// u16 nAttrs | nAttrs×(str,str) sorted by key.

var magic = [4]byte{'S', 'R', 'G', '1'}

// limits bound decode-side allocations against malformed input.
const (
	maxNodes    = 16 << 20
	maxStrLen   = 1 << 16
	maxAttrs    = 1 << 12
	maxNodeRank = 16
)

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// Encode writes the graph in the binary wire format.
func (g *Graph) Encode(w io.Writer) error { return g.encode(w, g.Name) }

// encode writes the wire format under the given name; the graph is only
// read, so concurrent encodes and fingerprints of one graph are safe.
func (g *Graph) encode(w io.Writer, name string) error {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	writeStr16 := func(s string) error {
		if len(s) > maxStrLen {
			return fmt.Errorf("srg: string too long (%d)", len(s))
		}
		var b [2]byte
		binary.LittleEndian.PutUint16(b[:], uint16(len(s)))
		if _, err := bw.Write(b[:]); err != nil {
			return err
		}
		_, err := bw.WriteString(s)
		return err
	}
	writeU32 := func(v uint32) error {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		_, err := bw.Write(b[:])
		return err
	}
	if err := writeStr16(name); err != nil {
		return err
	}
	if err := writeU32(uint32(len(g.nodes))); err != nil {
		return err
	}
	for _, n := range g.nodes {
		if err := writeU32(uint32(n.ID)); err != nil {
			return err
		}
		for _, s := range []string{n.Op, n.Ref, n.Module, string(n.Phase)} {
			if err := writeStr16(s); err != nil {
				return err
			}
		}
		if err := bw.WriteByte(byte(n.Residency)); err != nil {
			return err
		}
		if err := writeStr16(string(n.Modality)); err != nil {
			return err
		}
		var f [16]byte
		binary.LittleEndian.PutUint64(f[:8], uint64(int64(n.Cost.FLOPs)))
		binary.LittleEndian.PutUint64(f[8:], uint64(n.Cost.Bytes))
		if _, err := bw.Write(f[:]); err != nil {
			return err
		}
		if err := bw.WriteByte(n.Output.DType); err != nil {
			return err
		}
		if len(n.Output.Shape) > maxNodeRank {
			return fmt.Errorf("srg: node %d rank %d too large", n.ID, len(n.Output.Shape))
		}
		if err := bw.WriteByte(byte(len(n.Output.Shape))); err != nil {
			return err
		}
		for _, d := range n.Output.Shape {
			if err := writeU32(uint32(d)); err != nil {
				return err
			}
		}
		if err := writeU32(uint32(len(n.Inputs))); err != nil {
			return err
		}
		for _, in := range n.Inputs {
			if err := writeU32(uint32(in)); err != nil {
				return err
			}
		}
		keys := attrKeys(n.Attrs, nil)
		var ab [2]byte
		binary.LittleEndian.PutUint16(ab[:], uint16(len(keys)))
		if _, err := bw.Write(ab[:]); err != nil {
			return err
		}
		for _, k := range keys {
			if err := writeStr16(k); err != nil {
				return err
			}
			if err := writeStr16(n.Attrs[k]); err != nil {
				return err
			}
		}
	}
	// Edge annotations, sorted for determinism.
	type ann struct {
		k        edgeKey
		rate     float64
		hasRate  bool
		critical bool
		hasCrit  bool
	}
	merged := make(map[edgeKey]*ann)
	get := func(k edgeKey) *ann {
		a, ok := merged[k]
		if !ok {
			a = &ann{k: k}
			merged[k] = a
		}
		return a
	}
	for k, r := range g.edgeRate {
		a := get(k)
		a.rate, a.hasRate = r, true
	}
	for k, c := range g.edgeCritical {
		a := get(k)
		a.critical, a.hasCrit = c, true
	}
	anns := make([]*ann, 0, len(merged))
	for _, a := range merged {
		anns = append(anns, a)
	}
	sort.Slice(anns, func(i, j int) bool {
		if anns[i].k.to != anns[j].k.to {
			return anns[i].k.to < anns[j].k.to
		}
		return anns[i].k.arg < anns[j].k.arg
	})
	if err := writeU32(uint32(len(anns))); err != nil {
		return err
	}
	for _, a := range anns {
		if err := writeU32(uint32(a.k.to)); err != nil {
			return err
		}
		if err := writeU32(uint32(a.k.arg)); err != nil {
			return err
		}
		var flags byte
		if a.hasRate {
			flags |= 1
		}
		if a.hasCrit {
			flags |= 2
		}
		if a.critical {
			flags |= 4
		}
		if err := bw.WriteByte(flags); err != nil {
			return err
		}
		var rb [8]byte
		binary.LittleEndian.PutUint64(rb[:], uint64(int64(a.rate*1e9)))
		if _, err := bw.Write(rb[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Decode reads a graph in the binary wire format.
func Decode(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, err
	}
	if m != magic {
		return nil, fmt.Errorf("srg: bad magic %q", m)
	}
	readStr16 := func() (string, error) {
		var b [2]byte
		if _, err := io.ReadFull(br, b[:]); err != nil {
			return "", err
		}
		n := int(binary.LittleEndian.Uint16(b[:]))
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}
	readU32 := func() (uint32, error) {
		var b [4]byte
		if _, err := io.ReadFull(br, b[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(b[:]), nil
	}
	name, err := readStr16()
	if err != nil {
		return nil, err
	}
	g := New(name)
	count, err := readU32()
	if err != nil {
		return nil, err
	}
	if count > maxNodes {
		return nil, fmt.Errorf("srg: node count %d exceeds limit", count)
	}
	for i := uint32(0); i < count; i++ {
		id, err := readU32()
		if err != nil {
			return nil, err
		}
		if id != i {
			return nil, fmt.Errorf("srg: non-dense node ID %d at index %d", id, i)
		}
		n := &Node{}
		if n.Op, err = readStr16(); err != nil {
			return nil, err
		}
		if n.Ref, err = readStr16(); err != nil {
			return nil, err
		}
		if n.Module, err = readStr16(); err != nil {
			return nil, err
		}
		var ph string
		if ph, err = readStr16(); err != nil {
			return nil, err
		}
		n.Phase = Phase(ph)
		resB, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		n.Residency = Residency(resB)
		var mod string
		if mod, err = readStr16(); err != nil {
			return nil, err
		}
		n.Modality = Modality(mod)
		var f [16]byte
		if _, err := io.ReadFull(br, f[:]); err != nil {
			return nil, err
		}
		n.Cost.FLOPs = float64(int64(binary.LittleEndian.Uint64(f[:8])))
		n.Cost.Bytes = int64(binary.LittleEndian.Uint64(f[8:]))
		if n.Output.DType, err = br.ReadByte(); err != nil {
			return nil, err
		}
		rank, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		if int(rank) > maxNodeRank {
			return nil, fmt.Errorf("srg: rank %d too large", rank)
		}
		n.Output.Shape = make([]int, rank)
		for d := range n.Output.Shape {
			v, err := readU32()
			if err != nil {
				return nil, err
			}
			n.Output.Shape[d] = int(v)
		}
		nIn, err := readU32()
		if err != nil {
			return nil, err
		}
		if nIn > count {
			return nil, fmt.Errorf("srg: node %d input count %d too large", id, nIn)
		}
		n.Inputs = make([]NodeID, nIn)
		for j := range n.Inputs {
			v, err := readU32()
			if err != nil {
				return nil, err
			}
			n.Inputs[j] = NodeID(v)
		}
		var ab [2]byte
		if _, err := io.ReadFull(br, ab[:]); err != nil {
			return nil, err
		}
		nAttr := int(binary.LittleEndian.Uint16(ab[:]))
		if nAttr > maxAttrs {
			return nil, fmt.Errorf("srg: attr count %d too large", nAttr)
		}
		if nAttr > 0 {
			n.Attrs = make(map[string]string, nAttr)
			for j := 0; j < nAttr; j++ {
				k, err := readStr16()
				if err != nil {
					return nil, err
				}
				v, err := readStr16()
				if err != nil {
					return nil, err
				}
				n.Attrs[k] = v
			}
		}
		if _, err := g.Add(n); err != nil {
			return nil, err
		}
	}
	annCount, err := readU32()
	if err != nil {
		return nil, err
	}
	if annCount > maxNodes {
		return nil, fmt.Errorf("srg: edge annotation count %d exceeds limit", annCount)
	}
	for i := uint32(0); i < annCount; i++ {
		to, err := readU32()
		if err != nil {
			return nil, err
		}
		arg, err := readU32()
		if err != nil {
			return nil, err
		}
		flags, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		var rb [8]byte
		if _, err := io.ReadFull(br, rb[:]); err != nil {
			return nil, err
		}
		k := edgeKey{NodeID(to), int(arg)}
		if flags&1 != 0 {
			g.edgeRate[k] = float64(int64(binary.LittleEndian.Uint64(rb[:]))) / 1e9
		}
		if flags&2 != 0 {
			g.edgeCritical[k] = flags&4 != 0
		}
	}
	return g, nil
}

// Fingerprint returns a stable hex digest of the graph's canonical
// encoding. Two graphs with identical structure and annotations share a
// fingerprint; the global scheduler uses it to recognize repeated
// workloads (e.g. "two tenants running the same public LLM", §3.6).
func (g *Graph) Fingerprint() string {
	h := sha256.New()
	// Name is excluded: the fingerprint identifies computation, not label.
	_ = g.encode(h, "")
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// jsonGraph is the exported JSON form (genie-viz, debugging).
type jsonGraph struct {
	Name  string     `json:"name"`
	Nodes []jsonNode `json:"nodes"`
	Edges []Edge     `json:"edges"`
}

type jsonNode struct {
	ID        NodeID            `json:"id"`
	Op        string            `json:"op"`
	Ref       string            `json:"ref,omitempty"`
	Module    string            `json:"module,omitempty"`
	Phase     Phase             `json:"phase,omitempty"`
	Residency string            `json:"residency,omitempty"`
	Modality  Modality          `json:"modality,omitempty"`
	FLOPs     float64           `json:"flops,omitempty"`
	Bytes     int64             `json:"bytes,omitempty"`
	Output    TensorMeta        `json:"output"`
	Inputs    []NodeID          `json:"inputs,omitempty"`
	Attrs     map[string]string `json:"attrs,omitempty"`
}

// MarshalJSON implements json.Marshaler for tooling output.
func (g *Graph) MarshalJSON() ([]byte, error) {
	out := jsonGraph{Name: g.Name, Edges: g.Edges()}
	for _, n := range g.nodes {
		out.Nodes = append(out.Nodes, jsonNode{
			ID: n.ID, Op: n.Op, Ref: n.Ref, Module: n.Module,
			Phase: n.Phase, Residency: n.Residency.String(), Modality: n.Modality,
			FLOPs: n.Cost.FLOPs, Bytes: n.Cost.Bytes,
			Output: n.Output, Inputs: n.Inputs, Attrs: n.Attrs,
		})
	}
	return json.Marshal(out)
}

// DOT renders the graph in Graphviz format, coloring nodes by phase and
// shaping leaves by residency — the genie-viz output.
func (g *Graph) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=TB;\n  node [fontname=\"monospace\"];\n", g.Name)
	colors := map[Phase]string{
		PhaseLLMPrefill: "#cfe8ff", PhaseLLMDecode: "#ffd9cc",
		PhaseCVStage: "#d9f2d9", PhaseSparse: "#fff2cc", PhaseDense: "#e6d9f2",
		PhaseFusion: "#f2d9e6",
	}
	for _, n := range g.nodes {
		label := n.Op
		if n.Ref != "" {
			label += "\\n" + n.Ref
		}
		shape := "box"
		if n.Op == "param" {
			shape = "cylinder"
		} else if n.Op == "input" {
			shape = "invhouse"
		}
		color := colors[n.Phase]
		if color == "" {
			color = "#eeeeee"
		}
		fmt.Fprintf(&b, "  n%d [label=\"%s\", shape=%s, style=filled, fillcolor=%q];\n",
			n.ID, label, shape, color)
	}
	for _, e := range g.Edges() {
		style := ""
		if e.Critical {
			style = " [penwidth=2, color=red]"
		}
		fmt.Fprintf(&b, "  n%d -> n%d%s;\n", e.From, e.To, style)
	}
	b.WriteString("}\n")
	return b.String()
}
