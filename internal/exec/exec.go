// Package exec interprets SRG nodes against concrete tensors. It is the
// kernel dispatcher shared by every execution site: the client's local
// device and the remote backend server run the same interpreter, which
// is what makes an SRG subgraph recomputable anywhere (§3.5's
// determinism requirement: a session resumed on another backend rebuilds
// bit-identical state).
package exec

import (
	"fmt"
	"strconv"
	"strings"

	"genie/internal/srg"
	"genie/internal/tensor"
	"genie/internal/tensor/ops"
)

// Node executes a single SRG node given its input tensors in argument
// order. Leaf ops ("param", "input") are not executable here — binding
// them to data is the caller's job.
func Node(n *srg.Node, in []*tensor.Tensor) (*tensor.Tensor, error) {
	need := func(k int) error {
		if len(in) != k {
			return fmt.Errorf("exec: %s needs %d inputs, got %d", n.Op, k, len(in))
		}
		return nil
	}
	switch n.Op {
	case "param", "input":
		return nil, fmt.Errorf("exec: leaf op %q must be bound, not executed", n.Op)
	case "matmul":
		if err := need(2); err != nil {
			return nil, err
		}
		return ops.MatMul(in[0], in[1])
	case "matmul_t":
		if err := need(2); err != nil {
			return nil, err
		}
		return ops.MatMulT(in[0], in[1])
	case "add":
		if err := need(2); err != nil {
			return nil, err
		}
		return ops.Add(in[0], in[1])
	case "sub":
		if err := need(2); err != nil {
			return nil, err
		}
		return ops.Sub(in[0], in[1])
	case "mul":
		if err := need(2); err != nil {
			return nil, err
		}
		return ops.Mul(in[0], in[1])
	case "scale":
		if err := need(1); err != nil {
			return nil, err
		}
		s, err := attrFloat(n, "s")
		if err != nil {
			return nil, err
		}
		return ops.Scale(in[0], float32(s)), nil
	case "causal_mask":
		if err := need(1); err != nil {
			return nil, err
		}
		offset, err := attrInt(n, "offset")
		if err != nil {
			return nil, err
		}
		return ops.CausalMask(in[0], offset)
	case "softmax":
		if err := need(1); err != nil {
			return nil, err
		}
		return ops.Softmax(in[0]), nil
	case "rope":
		if err := need(1); err != nil {
			return nil, err
		}
		start, err := attrInt(n, "start")
		if err != nil {
			return nil, err
		}
		base, err := attrFloat(n, "base")
		if err != nil {
			return nil, err
		}
		return ops.RoPE(in[0], start, base)
	case "gelu":
		if err := need(1); err != nil {
			return nil, err
		}
		return ops.GELU(in[0]), nil
	case "relu":
		if err := need(1); err != nil {
			return nil, err
		}
		return ops.ReLU(in[0]), nil
	case "layernorm":
		if err := need(3); err != nil {
			return nil, err
		}
		eps, err := attrFloat(n, "eps")
		if err != nil {
			return nil, err
		}
		return ops.LayerNorm(in[0], in[1], in[2], float32(eps))
	case "embedding":
		if err := need(2); err != nil {
			return nil, err
		}
		return ops.Embedding(in[0], in[1])
	case "embedding_bag":
		if err := need(2); err != nil {
			return nil, err
		}
		offsets, err := attrInts(n, "offsets")
		if err != nil {
			return nil, err
		}
		if in[1].DType() != tensor.I64 {
			return nil, fmt.Errorf("exec: embedding_bag ids must be i64")
		}
		return ops.EmbeddingBag(in[0], in[1].I64(), offsets)
	case "concat":
		if len(in) < 1 {
			return nil, fmt.Errorf("exec: concat needs inputs")
		}
		dim, err := attrInt(n, "dim")
		if err != nil {
			return nil, err
		}
		return ops.Concat(dim, in...)
	case "slice_rows":
		if err := need(1); err != nil {
			return nil, err
		}
		start, err := attrInt(n, "start")
		if err != nil {
			return nil, err
		}
		end, err := attrInt(n, "end")
		if err != nil {
			return nil, err
		}
		return ops.SliceRows(in[0], start, end)
	case "transpose2d":
		if err := need(1); err != nil {
			return nil, err
		}
		return ops.Transpose2D(in[0])
	case "reshape":
		if err := need(1); err != nil {
			return nil, err
		}
		shape, err := attrInts(n, "shape")
		if err != nil {
			return nil, err
		}
		return in[0].Reshape(shape...)
	case "argmax_last":
		if err := need(1); err != nil {
			return nil, err
		}
		id, err := ops.ArgmaxLastRow(in[0])
		if err != nil {
			return nil, err
		}
		return tensor.FromI64(tensor.Shape{1}, []int64{id}), nil
	case "conv2d":
		if err := need(2); err != nil {
			return nil, err
		}
		stride, err := attrInt(n, "stride")
		if err != nil {
			return nil, err
		}
		pad, err := attrInt(n, "pad")
		if err != nil {
			return nil, err
		}
		return ops.Conv2D(in[0], in[1], stride, pad)
	case "maxpool2d":
		if err := need(1); err != nil {
			return nil, err
		}
		k, err := attrInt(n, "k")
		if err != nil {
			return nil, err
		}
		return ops.MaxPool2D(in[0], k)
	case "meanpool":
		if err := need(1); err != nil {
			return nil, err
		}
		return ops.MeanPoolAll(in[0])
	case "sum":
		if err := need(1); err != nil {
			return nil, err
		}
		return ops.Sum(in[0]), nil
	case "fused":
		if err := need(1); err != nil {
			return nil, err
		}
		return execFused(n, in[0])
	}
	return nil, fmt.Errorf("exec: unknown op %q", n.Op)
}

func attrFloat(n *srg.Node, key string) (float64, error) {
	v, ok := n.Attrs[key]
	if !ok {
		return 0, fmt.Errorf("exec: %s missing attr %q", n.Op, key)
	}
	return strconv.ParseFloat(v, 64)
}

func attrInt(n *srg.Node, key string) (int, error) {
	v, ok := n.Attrs[key]
	if !ok {
		return 0, fmt.Errorf("exec: %s missing attr %q", n.Op, key)
	}
	return strconv.Atoi(v)
}

func attrInts(n *srg.Node, key string) ([]int, error) {
	v, ok := n.Attrs[key]
	if !ok {
		return nil, fmt.Errorf("exec: %s missing attr %q", n.Op, key)
	}
	parts := strings.Split(v, ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		x, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("exec: attr %q: %v", key, err)
		}
		out[i] = x
	}
	return out, nil
}

// execFused interprets a fused elementwise micro-program: the node's
// "stages" attribute lists unary stages ("scale:<s>", "gelu", "relu",
// "softmax") applied in order. Fused nodes are produced by the
// scheduler's FuseElementwise rewrite; executing the stages sequentially
// here is semantically identical to the unfused chain (each stage is the
// same kernel), while a real accelerator backend would emit one kernel.
func execFused(n *srg.Node, x *tensor.Tensor) (*tensor.Tensor, error) {
	attr, ok := n.Attrs["stages"]
	if !ok || attr == "" {
		return nil, fmt.Errorf("exec: fused node missing stages attr")
	}
	cur := x
	for _, part := range strings.Split(attr, "|") {
		switch {
		case strings.HasPrefix(part, "scale:"):
			v, err := strconv.ParseFloat(part[len("scale:"):], 64)
			if err != nil {
				return nil, fmt.Errorf("exec: fused scale arg: %v", err)
			}
			cur = ops.Scale(cur, float32(v))
		case strings.HasPrefix(part, "causal_mask:"):
			off, err := strconv.Atoi(part[len("causal_mask:"):])
			if err != nil {
				return nil, fmt.Errorf("exec: fused causal_mask arg: %v", err)
			}
			cur, err = ops.CausalMask(cur, off)
			if err != nil {
				return nil, err
			}
		case part == "gelu":
			cur = ops.GELU(cur)
		case part == "relu":
			cur = ops.ReLU(cur)
		case part == "softmax":
			cur = ops.Softmax(cur)
		default:
			return nil, fmt.Errorf("exec: unknown fused stage %q", part)
		}
	}
	return cur, nil
}

// Binder resolves a leaf node's data by ref.
type Binder func(op, ref string) (*tensor.Tensor, error)

// Graph evaluates an entire SRG in topological order, binding leaves via
// bind, and returns every node's value. It is the reference evaluator
// behind local execution (runtime.RunLocal) and tests; production paths
// execute plans node by node so they can interleave transfers.
func Graph(g *srg.Graph, bind Binder) (map[srg.NodeID]*tensor.Tensor, error) {
	vals := make(map[srg.NodeID]*tensor.Tensor, g.Len())
	for _, id := range g.TopoOrder() {
		n := g.Node(id)
		switch n.Op {
		case "param", "input":
			t, err := bind(n.Op, n.Ref)
			if err != nil {
				return nil, fmt.Errorf("exec: bind %s %q: %w", n.Op, n.Ref, err)
			}
			vals[id] = t
		default:
			in := make([]*tensor.Tensor, len(n.Inputs))
			for i, dep := range n.Inputs {
				in[i] = vals[dep]
			}
			t, err := Node(n, in)
			if err != nil {
				return nil, fmt.Errorf("exec: node %d: %w", id, err)
			}
			vals[id] = t
		}
	}
	return vals, nil
}
