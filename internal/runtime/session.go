package runtime

import (
	"context"
	"fmt"
	"time"

	"genie/internal/exec"
	"genie/internal/lazy"
	"genie/internal/models"
	"genie/internal/nn"
	"genie/internal/obs"
	"genie/internal/srg"
	"genie/internal/tensor"
	"genie/internal/transport"
)

// Session is an incremental generation handle: Prefill establishes the
// prompt state, then each Step advances generation by exactly one decode
// iteration. Generate is Prefill + steps×Step by construction, so a
// session whose steps are interleaved with other sessions' steps (the
// online engine's continuous decode batching) produces the same token
// sequence as a standalone Generate call in the same mode.
//
// A Scope namespaces the session's remote-resident KV-cache keys, so
// many sessions can share one backend without clobbering each other's
// state; weights are installed under unscoped refs and stay shared.
//
// Every remote configuration — the paper's naive, ΔKV and
// semantics-aware modes, the prefix-cached and prefill/decode-split
// runners of kvcache, the sharded runner of pool — is one executor,
// forward, that runs a pass as a sequence of hops. What differs is
// derived, never configured: the wire discipline from the Mode, and who
// executes a hop and whether a prefix cache wraps prefill from the
// constructor that built the runner (see Placement, PrefixCache).
// ModeLocal is the separate in-process branch every other row is
// compared against.
type Session struct {
	r     *LLMRunner
	mode  Mode
	scope string
	// ctx carries trace context for the session's default Prefill/Step
	// path; nil when the caller is not tracing (the common case — a nil
	// ctx short-circuits span creation to one nil check).
	ctx   context.Context
	res   GenResult
	gpu   time.Duration
	next  int64
	ready bool

	// hist counts the positions whose KV state the session holds,
	// wherever it lives. log is the token log, prompt ‖ emitted tokens:
	// the naive replay's every input, and what any other remote session
	// re-prefills when its state is lost (forward).
	hist int
	log  []int64
	tok  [1]int64 // the decode step's one-token input, reused
	// epoch is the store epoch of the last hop on the endpoint holding
	// the session's KV; semantics-aware binds carry it so a backend that
	// lost state rejects the stale handle.
	epoch uint32
	// caches holds the per-layer KV tensors in ModeLocal. In remote modes
	// it stays empty — the client holds no KV — and only gives
	// BuildDecodeStep the layer count.
	caches []*nn.KVCache
	keep   map[srg.NodeID]bool // ModeLocal's kept-node set, reused across steps
	unpin  func()              // releases the prefix-cache pin held for the session's life
}

// Executor is what a hop needs of its target: one Exec. An Endpoint is
// one; so are the adapters kvcache and pool route hops through.
type Executor interface {
	Exec(x *transport.Exec) (*transport.ExecOK, error)
}

// ExecEP dispatches one Exec through ep, passing ctx — deadline, cancel
// and trace context — when ep has an ExecCtx (transport.Client and every
// wrapper in this module do; plain fakes need not). It is the one place
// a session's hops reach an endpoint, and the place a nil ctx is
// tolerated.
func ExecEP(ctx context.Context, ep Executor, x *transport.Exec) (*transport.ExecOK, error) {
	if ctx != nil {
		if ce, ok := ep.(interface {
			ExecCtx(context.Context, *transport.Exec) (*transport.ExecOK, error)
		}); ok {
			return ce.ExecCtx(ctx, x)
		}
	}
	return ep.Exec(x)
}

// NewSession opens an unscoped session (remote KV keys are the bare
// cache refs, exactly as Generate uses them).
func (r *LLMRunner) NewSession(mode Mode) (*Session, error) {
	return r.NewScopedSession(mode, "")
}

// NewScopedSession opens a session whose remote per-request state
// (KV caches) lives under scope-prefixed keys. scope must be unique per
// concurrent session on the same endpoint; "" means no prefix.
func (r *LLMRunner) NewScopedSession(mode Mode, scope string) (*Session, error) {
	return r.NewScopedSessionCtx(nil, mode, scope)
}

// NewScopedSessionCtx is NewScopedSession carrying trace context: spans
// for the session's phases (and the RPCs under them) parent under the
// span active in ctx. A nil or untraced ctx costs nothing.
func (r *LLMRunner) NewScopedSessionCtx(ctx context.Context, mode Mode, scope string) (*Session, error) {
	switch {
	case mode < ModeLocal || mode > ModeSemAware:
		return nil, fmt.Errorf("runtime: unknown mode %d", mode)
	case r.placement != nil && mode != ModeSemAware:
		// Placed hops bind resident state by handle and bring home only
		// what the next hop needs; the blind modes cannot express that.
		return nil, fmt.Errorf("runtime: a placed runner supports mode %s, not %s", ModeSemAware, mode)
	case r.prefix != nil && mode != ModeLocal && mode != ModeSemAware:
		return nil, fmt.Errorf("runtime: a prefix-cached runner supports modes %s and %s, not %s", ModeLocal, ModeSemAware, mode)
	case mode != ModeLocal && r.EP == nil && r.placement == nil:
		return nil, fmt.Errorf("runtime: %s mode needs an endpoint", mode)
	}
	s := &Session{r: r, mode: mode, scope: scope, ctx: ctx, caches: make([]*nn.KVCache, r.Model.Cfg.Layers)}
	for i := range s.caches {
		s.caches[i] = &nn.KVCache{}
	}
	if mode != ModeLocal {
		// Fail at creation, not mid-stream, when nobody can execute (a pool
		// with no feasible plan).
		if _, err := s.route(true, 0); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Prefill runs the prompt phase and returns the first generated token.
// It must be called exactly once, before any Step.
func (s *Session) Prefill(prompt []int64) (int64, error) {
	return s.PrefillCtx(s.ctx, prompt)
}

// PrefillCtx is Prefill with per-call trace context (the serving engine
// parents the session's prefill span under its own phase span).
func (s *Session) PrefillCtx(ctx context.Context, prompt []int64) (int64, error) {
	if s.ready {
		return 0, fmt.Errorf("runtime: session already prefilled")
	}
	if len(prompt) == 0 {
		return 0, fmt.Errorf("runtime: empty prompt")
	}
	sctx, span := obs.StartSpan(ctx, "session.prefill")
	span.SetAttrInt("prompt_tokens", int64(len(prompt)))
	err := s.r.measure(&s.res.Prefill, &s.gpu, func() error {
		tok, err := s.prefill(sctx, prompt)
		if err != nil {
			return err
		}
		s.next = tok
		return nil
	})
	span.End()
	if err != nil {
		return 0, err
	}
	s.ready = true
	return s.next, nil
}

// Next returns the most recently generated token without advancing.
func (s *Session) Next() int64 { return s.next }

// Step runs one decode iteration on the current token and returns the
// newly generated token. Interleaving Steps of different sessions at
// these boundaries is the engine's continuous batching.
func (s *Session) Step() (int64, error) {
	return s.StepCtx(s.ctx)
}

// StepCtx is Step with per-call trace context.
func (s *Session) StepCtx(ctx context.Context) (int64, error) {
	if !s.ready {
		return 0, fmt.Errorf("runtime: Step before Prefill")
	}
	sctx, span := obs.StartSpan(ctx, "session.step")
	err := s.r.measure(&s.res.Decode, &s.gpu, func() error {
		tok, err := s.step(sctx, s.next)
		if err != nil {
			return err
		}
		s.next = tok
		return nil
	})
	span.End()
	if err != nil {
		return 0, err
	}
	return s.next, nil
}

// Result exposes the session's accumulated per-phase metrics. Tokens is
// filled by Generate; incremental callers track tokens themselves from
// the Prefill/Step return values.
func (s *Session) Result() *GenResult { return &s.res }

// ResidentKeys lists the session's per-request cache-plane keys, wherever
// the state lives (ModeLocal's client-side caches report keys too — only
// Close cares about residency). The naive replay keeps no per-session
// cache state anywhere, so its list is empty, but never nil: "accounted,
// zero keys" is an answer.
func (s *Session) ResidentKeys() []string {
	keys := []string{}
	if s.mode == ModeNaive {
		return keys
	}
	for i := range s.caches {
		keys = append(keys, s.scope+models.CacheRef(i, "k"), s.scope+models.CacheRef(i, "v"))
	}
	return keys
}

// Close releases the session's per-request state: the prefix-cache pin
// and the scoped KV caches on whichever endpoints hold them. Weights
// stay resident, and so do an unscoped session's caches — they live
// under the bare refs it shares with Generate and its unscoped
// neighbours. Safe to call in any mode.
func (s *Session) Close() error {
	if s.unpin != nil {
		s.unpin()
		s.unpin = nil
	}
	if s.mode == ModeLocal || s.scope == "" {
		return nil
	}
	var first error
	for _, k := range s.ResidentKeys() {
		var err error
		if p := s.r.placement; p != nil {
			err = p.Free(k)
		} else {
			err = s.r.EP.Free(k)
		}
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

// prefill consumes the prompt and returns the first generated token.
// With a prefix cache it is Lookup → suffix-only pass → Insert; decode
// never sees the cache.
func (s *Session) prefill(ctx context.Context, prompt []int64) (int64, error) {
	if s.mode == ModeDeltaKV || s.mode == ModeSemAware {
		// One-time provisioning: weights remain remote (not counted in phase
		// traffic, exactly as the paper's setup pre-installs the model).
		if err := s.r.ensureWeights(); err != nil {
			return 0, err
		}
	}
	var hit PrefixHit
	if s.r.prefix != nil {
		var err error
		if hit, err = s.r.prefix.Match(prompt); err != nil {
			return 0, err
		}
	}
	s.log = append(s.log[:0], prompt...)
	tok, newK, newV, err := s.forward(ctx, true, prompt[hit.Matched:], hit.Matched, hit.KV)
	if hit.Commit != nil {
		// Exactly once on every path: nil rows after a failed pass only
		// release what Match pinned and gathered.
		unpin, cerr := hit.Commit(newK, newV)
		for i := range newK {
			// The tree copied the rows. In-process they are arena scratch
			// to recycle, unless they are the caches themselves (a miss).
			if s.mode == ModeLocal && newK[i] != s.caches[i].K {
				newK[i].Release()
				newV[i].Release()
			}
		}
		if err == nil {
			s.unpin, err = unpin, cerr
		}
	}
	if err != nil {
		return 0, err
	}
	s.hist = len(prompt)
	return tok, nil
}

// step runs one decode iteration on tok and returns the next token.
func (s *Session) step(ctx context.Context, tok int64) (int64, error) {
	s.tok[0] = tok
	s.log = append(s.log[:s.hist], tok)
	tokens, pos := s.tok[:], s.hist
	if s.mode == ModeNaive {
		// Nothing survives between blind calls: replay the whole log.
		tokens, pos = s.log, 0
	}
	next, _, _, err := s.forward(ctx, false, tokens, pos, nil)
	if err != nil {
		return 0, err
	}
	s.hist++
	return next, nil
}

// hop is one dispatch of a forward pass: optionally the embeddings,
// blocks [lo, hi), optionally the head.
type hop struct {
	embed  bool
	lo, hi int
	head   bool
}

// hopAt cuts the hop that starts at the pass cursor and returns the
// cursor after it. Fused and sharded passes cut where the placement's
// extents end (cursor = layer). The blind per-module dispatcher of ΔKV
// cuts at every module the way a library that cannot see the model
// does — embed, each block, head: L+2 hops (cursor = module index).
func (s *Session) hopAt(at, hi int) (hop, int) {
	layers := len(s.caches)
	switch {
	case s.mode != ModeDeltaKV:
		return hop{embed: at == 0, lo: at, hi: hi, head: hi == layers}, hi
	case at == 0:
		return hop{embed: true}, 1
	case at <= layers:
		return hop{lo: at - 1, hi: at}, at + 1
	}
	return hop{lo: layers, hi: layers, head: true}, at + 1
}

// hopOut indexes the nodes of a captured hop, whichever builder made it.
type hopOut struct {
	act                srg.NodeID // boundary activation for the next hop (no head)
	logits, last, next srg.NodeID // full logits, final row, argmax (head)
	// Per block of the hop: the node holding the full cache after the call
	// (fresh rows at prefill, the appended concat at decode), and the node
	// holding only the fresh rows — the ΔKV slice.
	cacheK, cacheV, newK, newV []srg.NodeID
}

func llmOut(o models.LLMOutputs) hopOut {
	return hopOut{logits: o.Logits, last: o.LastLogits, next: o.NextToken,
		cacheK: o.CacheK, cacheV: o.CacheV, newK: o.NewK, newV: o.NewV}
}

// capture builds the hop's graph. A hop spanning the whole model uses
// the monolithic builders (a segment graph computes the same tokens but
// encodes ~1 % larger, and the per-token frame is the paper's fixed RPC
// constant); a suffix pass over a gathered prefix and a shard of a pool
// plan are segments; ΔKV's modules have their own.
func (s *Session) capture(h hop, tokens []int64, pos int, x *tensor.Tensor, prefix []*nn.KVCache) (*lazy.Builder, hopOut) {
	m := s.r.Model
	switch {
	case s.mode == ModeDeltaKV && h.embed:
		b, act := m.BuildEmbedStep(tokens, pos)
		return b, hopOut{act: act}
	case s.mode == ModeDeltaKV && h.head:
		b, logits, next := m.BuildHeadStep(x)
		return b, hopOut{logits: logits, next: next}
	case s.mode == ModeDeltaKV:
		b, lo := m.BuildLayerStep(h.lo, x, nil, pos)
		out := hopOut{act: lo.Out, newK: []srg.NodeID{lo.NewK}, newV: []srg.NodeID{lo.NewV}}
		out.cacheK, out.cacheV = out.newK, out.newV
		if pos > 0 {
			out.cacheK, out.cacheV = []srg.NodeID{lo.AppendedK}, []srg.NodeID{lo.AppendedV}
		}
		return b, out
	case prefix != nil || !h.embed || !h.head:
		b, so := m.BuildSegment(models.SegmentSpec{
			WithEmbed: h.embed, Tokens: tokens, StartPos: pos, X: x,
			LoLayer: h.lo, HiLayer: h.hi, WithHead: h.head,
			HistLen: pos, Caches: prefix,
		})
		return b, hopOut{act: so.Out, last: so.LastLogits, next: so.NextToken,
			cacheK: so.CacheK, cacheV: so.CacheV, newK: so.NewK, newV: so.NewV}
	case pos == 0:
		b, o := m.BuildPrefill(tokens)
		return b, llmOut(o)
	}
	b, o := m.BuildDecodeStep(tokens[0], pos, pos, s.caches)
	return b, llmOut(o)
}

// buildHop captures the hop and states what crosses the wire for it:
// which leaves travel inline and which bind resident state, which
// outputs stay remote under the session's keys, which come home.
func (s *Session) buildHop(h hop, rt Route, wantRows bool, tokens []int64, pos int, x *tensor.Tensor, prefix []*nn.KVCache) (*transport.Exec, hopOut) {
	b, out := s.capture(h, tokens, pos, x, prefix)
	aware := s.mode == ModeSemAware
	// A semantics-aware loop knows it will capture this structure again;
	// the blind modes ship every graph whole — Table 2's ordering is the
	// experiment.
	ex := &transport.Exec{Graph: b.Graph(), Repeat: aware}
	for _, n := range ex.Graph.Nodes() {
		switch {
		case n.Op == "param":
			// Weights are resident except on the naive wire, which re-sends
			// them in every call. The dedup hint collapses a repeat to a
			// 32-byte hash on feature-negotiated transports; legacy
			// connections strip it and the frame stays the blind encoding.
			if s.mode == ModeNaive {
				data, _ := b.ParamData(n.Ref)
				ex.Binds = append(ex.Binds, transport.Binding{Ref: n.Ref, Inline: data, Cache: true})
			}
		case n.Op != "input":
		case n.Residency == srg.ResidencyStatefulKVCache && prefix == nil:
			// Remote cache by handle: the tiny-handle round trip of §4. Only
			// the semantics-aware wire knows epochs (under a pool, the
			// resident index overwrites them with the owning member's).
			bd := transport.Binding{Ref: n.Ref, Key: s.scope + n.Ref}
			if aware {
				bd.Epoch = s.epoch
			}
			ex.Binds = append(ex.Binds, bd)
		default:
			// A gathered prefix rides the dedup plane: repeated prefixes
			// hash-collapse after their first trip on a connection.
			data, _ := b.InputData(n.Ref)
			ex.Binds = append(ex.Binds, transport.Binding{
				Ref: n.Ref, Inline: data, Cache: n.Residency == srg.ResidencyStatefulKVCache})
		}
	}
	if s.mode != ModeNaive && rt.Handoff == nil {
		ex.Keep = make(map[srg.NodeID]string, 2*len(out.cacheK))
		for i := range out.cacheK {
			ex.Keep[out.cacheK[i]] = s.scope + models.CacheRef(h.lo+i, "k")
			ex.Keep[out.cacheV[i]] = s.scope + models.CacheRef(h.lo+i, "v")
		}
	}
	switch {
	case wantRows:
		// The fresh rows come home once, for the radix insert and the
		// handoff; the logits row does not (nobody reads it).
		ex.Want = append(ex.Want, out.next)
		for i := range out.newK {
			ex.Want = append(ex.Want, out.newK[i], out.newV[i])
		}
	case aware && h.head:
		ex.Want = []srg.NodeID{out.last, out.next}
	case aware:
		ex.Want = []srg.NodeID{out.act}
	default:
		// A blind RPC library materializes every declared output back to
		// the caller: activations, the fresh KV rows of a cached module,
		// the full logits matrix.
		if !h.head {
			ex.Want = append(ex.Want, out.act)
		}
		if s.mode == ModeDeltaKV {
			for i := range out.newK {
				ex.Want = append(ex.Want, out.newK[i], out.newV[i])
			}
		}
		if h.head {
			ex.Want = append(ex.Want, out.logits, out.next)
		}
	}
	return ex, out
}

// route asks who executes the hop starting at layer lo right now. A
// runner without a placement has one answer: the whole model on EP.
func (s *Session) route(prefill bool, lo int) (Route, error) {
	if p := s.r.placement; p != nil {
		return p.Route(prefill, lo)
	}
	return Route{Hi: len(s.caches), EP: s.r.EP}, nil
}

// maxRepairs bounds the repairs one pass may trigger before its error
// surfaces to the session's caller.
const maxRepairs = 2

// divergedError reports a resume whose re-prefill over the token log
// did not reproduce the token the step was about to consume: the
// rebuilt state is not the state that was lost, so the session stops
// rather than continue on it.
type divergedError struct {
	pos       int
	got, want int64
}

func (e *divergedError) Error() string {
	return fmt.Sprintf("runtime: resume diverged: re-prefill over %d logged tokens gave %d, the log holds %d",
		e.pos, e.got, e.want)
}

// forward runs one pass — tokens at absolute position pos, over a
// gathered prefix when the radix hit — and returns the next token plus,
// at a prefill whose fresh KV rows are needed client-side, those rows.
//
// It is the only place in the session stack that reissues a failed
// exec. A failed hop whose route carries a Repair is repaired (the
// pool's evict-and-replan, or nothing to do when the state merely moved)
// and then the session's remote state may be gone, so the pass restarts
// from hop 0 against the repaired routes: a prefill simply re-runs; a
// decode step first resumes — one prefill over the token log rebuilds
// the KV of every position the step binds, because decode KV is exactly
// the prefill KV of the longer prompt — and then reissues. This is
// §3.5's recompute of the cut induced by the lost state: given the
// weights, the token log is the lineage of the KV.
func (s *Session) forward(ctx context.Context, prefill bool, tokens []int64, pos int, prefix []*nn.KVCache) (int64, []*tensor.Tensor, []*tensor.Tensor, error) {
	if s.mode == ModeLocal {
		return s.forwardLocal(tokens, pos, prefix)
	}
	var cause error // the failure the last repair answered
	for repairs := 0; ; repairs++ {
		// A repaired retry must not outlive the request: the caller's
		// deadline is the only thing bounding a churn storm.
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return 0, nil, nil, err
			}
		}
		var (
			repair func(error) error
			err    error
		)
		if cause != nil && !prefill {
			// Resume: rebuild the KV of every position the step binds.
			var tok int64
			tok, _, _, repair, err = s.pass(ctx, true, s.log[:s.hist], 0, nil)
			if err == nil && tok != tokens[0] {
				return 0, nil, nil, &divergedError{pos: s.hist, got: tok, want: tokens[0]}
			}
		}
		if err == nil {
			var next int64
			var newK, newV []*tensor.Tensor
			if next, newK, newV, repair, err = s.pass(ctx, prefill, tokens, pos, prefix); err == nil {
				return next, newK, newV, nil
			}
		}
		switch {
		case repair == nil && cause != nil:
			// The repair left nobody to run the hop (the pool's last
			// member went). What the caller must classify is the failure
			// that started it — a lost backend is retryable elsewhere — so
			// both travel.
			return 0, nil, nil, fmt.Errorf("%w (repairing after: %w)", err, cause)
		case repair == nil || repairs == maxRepairs:
			return 0, nil, nil, err
		}
		if rerr := repair(err); rerr != nil {
			return 0, nil, nil, fmt.Errorf("runtime: repair after %q: %w", err, rerr)
		}
		cause = err
	}
}

// pass runs one forward pass hop by hop, with no repair. On a failed
// exec it also returns the failing route's Repair (nil when the route
// has none, or when routing itself failed).
func (s *Session) pass(ctx context.Context, prefill bool, tokens []int64, pos int, prefix []*nn.KVCache) (int64, []*tensor.Tensor, []*tensor.Tensor, func(error) error, error) {
	var (
		x          *tensor.Tensor // boundary activation, home between hops
		newK, newV []*tensor.Tensor
	)
	for at := 0; ; {
		rt, err := s.route(prefill, at)
		if err != nil {
			return 0, nil, nil, nil, err
		}
		h, after := s.hopAt(at, rt.Hi)
		wantRows := prefill && (s.r.prefix != nil || rt.Handoff != nil)
		ex, out := s.buildHop(h, rt, wantRows, tokens, pos, x, prefix)
		ok, err := ExecEP(ctx, rt.EP, ex)
		if err != nil {
			return 0, nil, nil, rt.Repair, err
		}
		at = after
		s.gpu += time.Duration(ok.GPUTimeNs)
		if wantRows {
			for i := range out.newK {
				newK = append(newK, ok.Results[out.newK[i]])
				newV = append(newV, ok.Results[out.newV[i]])
			}
		}
		if rt.Handoff == nil {
			s.epoch = ok.Epoch
		} else {
			// The lane kept nothing; the handoff installs prefix ++ rows
			// where the session will decode.
			hok, err := rt.Handoff(ctx, s.scope, prefix, newK, newV)
			if err != nil {
				return 0, nil, nil, nil, err
			}
			s.gpu += time.Duration(hok.GPUTimeNs)
			s.epoch = hok.Epoch
		}
		if h.head {
			return ok.Results[out.next].I64()[0], newK, newV, nil, nil
		}
		x = ok.Results[out.act]
	}
}

// --- Local (upper bound) ---

// stepKeep lists the node values an in-process evaluation must retain:
// the per-layer cache states, the sampled token and, for a prefix-cached
// prefill, the fresh rows. Everything else is ephemeral and recycled
// mid-evaluation. prev is reused when it already matches — decode steps
// capture structurally identical graphs, so after the first step this
// allocates nothing.
func stepKeep(out hopOut, rows bool, prev map[srg.NodeID]bool) map[srg.NodeID]bool {
	if !rows && len(prev) == 2*len(out.cacheK)+1 {
		ok := prev[out.next]
		for i := 0; ok && i < len(out.cacheK); i++ {
			ok = prev[out.cacheK[i]] && prev[out.cacheV[i]]
		}
		if ok {
			return prev
		}
	}
	keep := make(map[srg.NodeID]bool, 4*len(out.cacheK)+1)
	for i := range out.cacheK {
		keep[out.cacheK[i]] = true
		keep[out.cacheV[i]] = true
		if rows {
			keep[out.newK[i]] = true
			keep[out.newV[i]] = true
		}
	}
	keep[out.next] = true
	return keep
}

// forwardLocal is the ModeLocal oracle: the whole model, in-process, on
// client-held caches. It shares the graph builders with the remote
// hops and nothing else.
func (s *Session) forwardLocal(tokens []int64, pos int, prefix []*nn.KVCache) (int64, []*tensor.Tensor, []*tensor.Tensor, error) {
	wantRows := s.r.prefix != nil && !s.ready
	b, out := s.capture(hop{embed: true, hi: len(s.caches), head: true}, tokens, pos, nil, prefix)
	s.keep = stepKeep(out, wantRows, s.keep)
	vals, err := exec.GraphEphemeral(b.Graph(), BindAll(b), s.keep)
	if err != nil {
		return 0, nil, nil, err
	}
	var newK, newV []*tensor.Tensor
	for i, c := range s.caches {
		// The kept cache node holds the full updated state (concat
		// copies), so the previous step's tensors are dead — recycle them.
		oldK, oldV := c.K, c.V
		c.K, c.V = vals[out.cacheK[i]], vals[out.cacheV[i]]
		if oldK != nil {
			oldK.Release()
			oldV.Release()
		}
		if wantRows {
			newK, newV = append(newK, vals[out.newK[i]]), append(newV, vals[out.newV[i]])
		}
	}
	s.gpu += modelGPUTime(b)
	return vals[out.next].I64()[0], newK, newV, nil
}
