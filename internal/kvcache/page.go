package kvcache

import (
	"fmt"

	"genie/internal/tensor"
)

// pageSet is one fixed-size KV page: pageTokens rows of K and V for every
// layer, arena-backed ([pageTokens, dim] f32 scratch tensors, zeroed on
// allocation, recycled on release). A pageSet is owned by exactly one
// pageRun; sharing happens at the radix-node level — two sessions whose
// prompts share a prefix read the same resident pages, they never get
// duplicate copies.
type pageSet struct {
	k, v []*tensor.Tensor // per layer, [pageTokens, dim]
	used int              // rows filled, 0..cap
	cap  int
}

func newPageSet(layers, pageTokens, dim int) *pageSet {
	p := &pageSet{cap: pageTokens}
	for i := 0; i < layers; i++ {
		p.k = append(p.k, tensor.NewScratch(tensor.F32, pageTokens, dim))
		p.v = append(p.v, tensor.NewScratch(tensor.F32, pageTokens, dim))
	}
	return p
}

func (p *pageSet) release() {
	for i := range p.k {
		p.k[i].Release()
		p.v[i].Release()
	}
	p.k, p.v = nil, nil
}

// bytes is the full allocation footprint (pages are budgeted whole, not
// by fill level — a half-empty resident page still occupies its arena
// buffer).
func (p *pageSet) bytes() int64 {
	var n int64
	for i := range p.k {
		n += int64(p.k[i].NumBytes() + p.v[i].NumBytes())
	}
	return n
}

// pageRun is an ordered sequence of pages holding a contiguous span of
// token positions: the KV state of one radix node.
type pageRun struct {
	layers, pageTokens, dim int

	pages  []*pageSet
	tokens int
}

func newRun(layers, pageTokens, dim int) *pageRun {
	return &pageRun{layers: layers, pageTokens: pageTokens, dim: dim}
}

func (r *pageRun) bytes() int64 {
	var n int64
	for _, p := range r.pages {
		n += p.bytes()
	}
	return n
}

func (r *pageRun) release() {
	for _, p := range r.pages {
		p.release()
	}
	r.pages, r.tokens = nil, 0
}

// appendRows copies rows [lo, hi) of each layer's fresh K/V tensors into
// the run, growing it page by page. The source tensors stay owned by the
// caller.
func (r *pageRun) appendRows(newK, newV []*tensor.Tensor, lo, hi int) error {
	if len(newK) != r.layers || len(newV) != r.layers {
		return fmt.Errorf("kvcache: %d/%d layer tensors for %d layers", len(newK), len(newV), r.layers)
	}
	for lo < hi {
		p := r.lastFree()
		take := p.cap - p.used
		if take > hi-lo {
			take = hi - lo
		}
		for i := 0; i < r.layers; i++ {
			if err := copyRows(p.k[i], newK[i], lo, lo+take, p.used); err != nil {
				return err
			}
			if err := copyRows(p.v[i], newV[i], lo, lo+take, p.used); err != nil {
				return err
			}
		}
		p.used += take
		r.tokens += take
		lo += take
	}
	return nil
}

func (r *pageRun) lastFree() *pageSet {
	if n := len(r.pages); n > 0 && r.pages[n-1].used < r.pages[n-1].cap {
		return r.pages[n-1]
	}
	p := newPageSet(r.layers, r.pageTokens, r.dim)
	r.pages = append(r.pages, p)
	return p
}

// copyRange copies the run's rows [lo, hi) into per-layer destination
// tensors starting at row `at` — the page-to-contiguous bridge the dense
// attention kernels need.
func (r *pageRun) copyRange(dstK, dstV []*tensor.Tensor, lo, hi, at int) error {
	if lo < 0 || hi > r.tokens || lo > hi {
		return fmt.Errorf("kvcache: run rows [%d,%d) of %d", lo, hi, r.tokens)
	}
	base := 0
	for _, p := range r.pages {
		s, e := max(base, lo), min(base+p.used, hi)
		if s < e {
			dst := at + s - lo
			for i := 0; i < r.layers; i++ {
				if err := copyRows(dstK[i], p.k[i], s-base, e-base, dst); err != nil {
					return err
				}
				if err := copyRows(dstV[i], p.v[i], s-base, e-base, dst); err != nil {
					return err
				}
			}
		}
		base += p.used
	}
	return nil
}

// cloneRange returns a fresh run holding a copy of rows [lo, hi) — the
// copy half of the radix split's copy-on-extend (the suffix child gets
// its own pages; the parent truncates in place).
func (r *pageRun) cloneRange(lo, hi int) (*pageRun, error) {
	ks, vs, release, err := r.gatherRange(lo, hi)
	if err != nil {
		return nil, err
	}
	defer release()
	out := newRun(r.layers, r.pageTokens, r.dim)
	if err := out.appendRows(ks, vs, 0, hi-lo); err != nil {
		out.release()
		return nil, err
	}
	return out, nil
}

// truncate drops rows beyond n in place, releasing pages that become
// fully unused.
func (r *pageRun) truncate(n int) {
	if n >= r.tokens {
		return
	}
	base := 0
	kept := r.pages[:0]
	for _, p := range r.pages {
		switch {
		case base+p.used <= n:
			kept = append(kept, p)
		case base < n:
			p.used = n - base
			kept = append(kept, p)
		default:
			p.release()
		}
		base += p.used
	}
	r.pages = kept
	r.tokens = n
}

// gatherRange materializes rows [lo, hi) as contiguous per-layer scratch
// tensors; release recycles them.
func (r *pageRun) gatherRange(lo, hi int) (ks, vs []*tensor.Tensor, release func(), err error) {
	ks = make([]*tensor.Tensor, r.layers)
	vs = make([]*tensor.Tensor, r.layers)
	for i := 0; i < r.layers; i++ {
		ks[i] = tensor.NewScratch(tensor.F32, hi-lo, r.dim)
		vs[i] = tensor.NewScratch(tensor.F32, hi-lo, r.dim)
	}
	release = func() {
		for i := 0; i < r.layers; i++ {
			ks[i].Release()
			vs[i].Release()
		}
	}
	if err := r.copyRange(ks, vs, lo, hi, 0); err != nil {
		release()
		return nil, nil, nil, err
	}
	return ks, vs, release, nil
}

// copyRows copies src rows [lo, hi) into dst starting at row `at`.
func copyRows(dst, src *tensor.Tensor, lo, hi, at int) error {
	if lo == hi {
		return nil
	}
	tmp, err := tensor.CopyRowRange(src, lo, hi)
	if err != nil {
		return err
	}
	defer tmp.Release()
	return tensor.CopyRowsAt(dst, tmp, at)
}
