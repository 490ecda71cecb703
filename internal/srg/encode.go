package srg

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"genie/internal/codec"
)

// The binary encoding is the SRG's wire format: it is what a Genie client
// ships to a global scheduler (§3.6) and to a backend in every
// execution. It is written in the one binary codec (internal/codec) that
// the plan diff (diff.go) and every transport message share. Layout
// (little-endian):
//
//	magic "SRG1" | u16 nameLen | name | u32 nodeCount | nodes… |
//	u32 edgeAnnCount | edge annotations…
//
// Each node: u32 id | str op | str ref | str module | str phase |
// u8 residency | str modality | f64 flops | i64 bytes | u8 dtype |
// u8 rank | rank×u32 dims | u32 nIn | nIn×u32 inputs |
// u16 nAttrs | nAttrs×(str,str) sorted by key.
//
// A str is u16 len | bytes, so a string longer than 65 535 bytes
// (codec.MaxStr) is an encode error. Each edge annotation: u32 to |
// u32 arg | u8 flags (1 rate, 2 critical set, 4 critical) | i64 rate
// in units of 1e-9, sorted by (to, arg).

var magic = []byte("SRG1")

// limits bound decode-side allocations against malformed input.
const (
	maxNodes    = 16 << 20
	maxAttrs    = 1 << 12
	maxNodeRank = 16
	// minNodeBytes is the smallest encoded node (empty strings, rank 0,
	// no inputs or attributes): a node count the input cannot hold is
	// refused before anything is allocated for it.
	minNodeBytes = 4 + 5*2 + 1 + 16 + 2 + 4 + 2
)

// AppendBinary appends the graph's binary wire format to dst. On error
// (a string over codec.MaxStr, a rank over 16) the appended bytes are
// not a valid encoding. The graph is only read, so concurrent encodes
// and fingerprints of one graph are safe.
func (g *Graph) AppendBinary(dst []byte) ([]byte, error) { return g.appendBinary(dst, g.Name) }

// BinarySize returns the length of the graph's binary encoding, so a
// caller can size the buffer AppendBinary fills.
func (g *Graph) BinarySize() int {
	str := func(s string) int { return 2 + len(s) }
	n := len(magic) + str(g.Name) + 4
	for _, nd := range g.nodes {
		n += 4 + str(nd.Op) + str(nd.Ref) + str(nd.Module) + str(string(nd.Phase)) + 1 +
			str(string(nd.Modality)) + 16 + 2 + 4*len(nd.Output.Shape) + 4 + 4*len(nd.Inputs) + 2
		for k, v := range nd.Attrs {
			n += str(k) + str(v)
		}
	}
	anns := len(g.edgeRate)
	for k := range g.edgeCritical {
		if _, dup := g.edgeRate[k]; !dup {
			anns++
		}
	}
	return n + 4 + 17*anns
}

// edgeKeys returns every annotated edge once, in encoding order.
func (g *Graph) edgeKeys() []edgeKey {
	keys := make([]edgeKey, 0, len(g.edgeRate)+len(g.edgeCritical))
	for k := range g.edgeRate {
		keys = append(keys, k)
	}
	for k := range g.edgeCritical {
		if _, dup := g.edgeRate[k]; !dup {
			keys = append(keys, k)
		}
	}
	slices.SortFunc(keys, func(a, b edgeKey) int {
		if a.to != b.to {
			return cmp.Compare(a.to, b.to)
		}
		return cmp.Compare(a.arg, b.arg)
	})
	return keys
}

// appendBinary appends the wire format under the given name.
func (g *Graph) appendBinary(dst []byte, name string) ([]byte, error) {
	w := codec.Writer{B: dst}
	w.Raw(magic)
	w.Str(name)
	w.U32(uint32(len(g.nodes)))
	var kbuf [8]string
	for _, n := range g.nodes {
		w.U32(uint32(n.ID))
		w.Str(n.Op)
		w.Str(n.Ref)
		w.Str(n.Module)
		w.Str(string(n.Phase))
		w.U8(byte(n.Residency))
		w.Str(string(n.Modality))
		w.U64(uint64(int64(n.Cost.FLOPs)))
		w.U64(uint64(n.Cost.Bytes))
		w.U8(n.Output.DType)
		if len(n.Output.Shape) > maxNodeRank {
			return w.B, fmt.Errorf("srg: node %d rank %d too large", n.ID, len(n.Output.Shape))
		}
		w.U8(byte(len(n.Output.Shape)))
		for _, d := range n.Output.Shape {
			w.U32(uint32(d))
		}
		w.U32(uint32(len(n.Inputs)))
		for _, in := range n.Inputs {
			w.U32(uint32(in))
		}
		keys := attrKeys(n.Attrs, kbuf[:0])
		w.U16(uint16(len(keys)))
		for _, k := range keys {
			w.Str(k)
			w.Str(n.Attrs[k])
		}
	}
	keys := g.edgeKeys()
	w.U32(uint32(len(keys)))
	for _, k := range keys {
		rate, hasRate := g.edgeRate[k]
		critical, hasCrit := g.edgeCritical[k]
		var flags byte
		if hasRate {
			flags |= 1
		}
		if hasCrit {
			flags |= 2
		}
		if critical {
			flags |= 4
		}
		w.U32(uint32(k.to))
		w.U32(uint32(k.arg))
		w.U8(flags)
		w.U64(uint64(int64(rate * 1e9)))
	}
	if err := w.Err(); err != nil {
		return w.B, fmt.Errorf("srg: %w", err)
	}
	return w.B, nil
}

// Decode reads a graph in the binary wire format. Bytes after the
// graph's last edge annotation are ignored.
func Decode(b []byte) (*Graph, error) {
	r := codec.NewReader(b)
	if m := r.Take(len(magic)); m != nil && string(m) != string(magic) {
		return nil, fmt.Errorf("srg: bad magic %q", m)
	}
	g := New(r.Str())
	count := r.U32()
	if r.Err() == nil && (count > maxNodes || int(count) > r.Len()/minNodeBytes) {
		return nil, fmt.Errorf("srg: node count %d exceeds the input", count)
	}
	g.nodes = make([]*Node, 0, count)
	slab := make([]Node, count)
	for i := uint32(0); i < count && r.Err() == nil; i++ {
		if id := r.U32(); id != i && r.Err() == nil {
			return nil, fmt.Errorf("srg: non-dense node ID %d at index %d", id, i)
		}
		n := &slab[i]
		n.Op = r.Str()
		n.Ref = r.Str()
		n.Module = r.Str()
		n.Phase = Phase(r.Str())
		n.Residency = Residency(r.U8())
		n.Modality = Modality(r.Str())
		n.Cost.FLOPs = float64(int64(r.U64()))
		n.Cost.Bytes = int64(r.U64())
		n.Output.DType = r.U8()
		rank := int(r.U8())
		if rank > maxNodeRank {
			return nil, fmt.Errorf("srg: rank %d too large", rank)
		}
		n.Output.Shape = make([]int, rank)
		for d := range n.Output.Shape {
			n.Output.Shape[d] = int(r.U32())
		}
		nIn := r.U32()
		if nIn > count {
			return nil, fmt.Errorf("srg: node %d input count %d too large", i, nIn)
		}
		n.Inputs = make([]NodeID, nIn)
		for j := range n.Inputs {
			n.Inputs[j] = NodeID(r.U32())
		}
		nAttr := int(r.U16())
		if nAttr > maxAttrs {
			return nil, fmt.Errorf("srg: attr count %d too large", nAttr)
		}
		if nAttr > 0 {
			n.Attrs = make(map[string]string, nAttr)
			for j := 0; j < nAttr; j++ {
				k := r.Str()
				n.Attrs[k] = r.Str()
			}
		}
		if _, err := g.Add(n); err != nil && r.Err() == nil {
			return nil, err
		}
	}
	annCount := r.U32()
	for i := uint32(0); i < annCount && r.Err() == nil; i++ {
		k := edgeKey{NodeID(r.U32()), int(r.U32())}
		flags := r.U8()
		// The float nearest v/1e9 can truncate back to v∓1; one step away
		// from zero makes it encode as v, so a decoded graph re-encodes
		// (and fingerprints) as the bytes it came from.
		v := int64(r.U64())
		rate := float64(v) / 1e9
		if int64(rate*1e9) != v {
			rate = math.Nextafter(rate, math.Copysign(math.Inf(1), rate))
		}
		if flags&1 != 0 {
			g.edgeRate[k] = rate
		}
		if flags&2 != 0 {
			g.edgeCritical[k] = flags&4 != 0
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("srg: %w", err)
	}
	return g, nil
}

// fpScratch recycles Fingerprint's encode buffers: the digest is taken
// over the whole encoding, which would otherwise be allocated per call.
var fpScratch = sync.Pool{New: func() any { return new([]byte) }}

// Fingerprint returns a stable hex digest of the graph's canonical
// encoding. Two graphs with identical structure and annotations share a
// fingerprint; the global scheduler uses it to recognize repeated
// workloads (e.g. "two tenants running the same public LLM", §3.6).
func (g *Graph) Fingerprint() string {
	p := fpScratch.Get().(*[]byte)
	defer fpScratch.Put(p)
	// Name is excluded: the fingerprint identifies computation, not label.
	// A graph that fails to encode (and so is never shipped) is digested
	// from the bytes its encoding got to.
	*p, _ = g.appendBinary((*p)[:0], "")
	sum := sha256.Sum256(*p)
	return hex.EncodeToString(sum[:16])
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
