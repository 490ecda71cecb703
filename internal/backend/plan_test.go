package backend

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"

	"genie/internal/cluster"
	"genie/internal/device"
	"genie/internal/lazy"
	"genie/internal/models"
	"genie/internal/pool"
	"genie/internal/runtime"
	"genie/internal/srg"
	"genie/internal/tensor"
	"genie/internal/transport"
)

// Resident step plans (DESIGN.md §11) end to end over a real Serve loop:
// which frames a connection carries, that a slot survives everything a
// decode loop does to it, and that a server granting nothing keeps the
// legacy bytes.

// tapConn records what the client writes, so a test can read back the
// frames a run put on the wire.
type tapConn struct {
	net.Conn
	mu sync.Mutex
	w  bytes.Buffer
}

func (c *tapConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.w.Write(p)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// sent is one client frame: its type and, for plan frames, the slot and
// kind bytes its payload starts with ('I' install, 'P' patch).
type sent struct {
	t       transport.MsgType
	slot    int
	kind    byte
	payload []byte
}

func (c *tapConn) frames(t *testing.T) []sent {
	t.Helper()
	c.mu.Lock()
	r := bytes.NewReader(append([]byte(nil), c.w.Bytes()...))
	c.mu.Unlock()
	var out []sent
	for r.Len() > 0 {
		mt, p, err := transport.ReadFrame(r)
		if err != nil {
			t.Fatalf("tap: %v", err)
		}
		f := sent{t: mt, payload: p}
		if mt == transport.MsgExecPlan {
			f.slot, f.kind = int(p[0]), "PI"[p[1]]
		}
		out = append(out, f)
	}
	return out
}

// count returns how many recorded frames satisfy keep.
func count(fs []sent, keep func(sent) bool) int {
	n := 0
	for _, f := range fs {
		if keep(f) {
			n++
		}
	}
	return n
}

func ofType(mt transport.MsgType) func(sent) bool {
	return func(f sent) bool { return f.t == mt }
}

func ofKind(kind byte) func(sent) bool {
	return func(f sent) bool { return f.t == transport.MsgExecPlan && f.kind == kind }
}

// tapPair serves srv over a pipe whose client side is tapped.
func tapPair(t *testing.T, srv *Server) (*transport.Client, *tapConn) {
	t.Helper()
	rawC, rawS := net.Pipe()
	tap := &tapConn{Conn: rawC}
	cc, sc := transport.NewConn(tap, nil, nil), transport.NewConn(rawS, nil, nil)
	go func() { _ = srv.Serve(sc) }()
	t.Cleanup(func() {
		cc.Close()
		sc.Close()
	})
	return transport.NewClient(cc), tap
}

func planModel() *models.GPT {
	return models.NewGPT(rand.New(rand.NewSource(3)), models.TinyGPT)
}

func planOracle(t *testing.T, prompt []int64, steps int) []int64 {
	t.Helper()
	res, err := (&runtime.LLMRunner{Model: planModel()}).Generate(runtime.ModeLocal, prompt, steps)
	if err != nil {
		t.Fatal(err)
	}
	return res.Tokens
}

var (
	planPromptA = []int64{5, 17, 42, 3, 9, 28, 54, 11, 2}
	planPromptB = []int64{8, 1, 44, 2}
)

// TestPlanInterleavedSessionsShareSlots interleaves two scoped sessions
// at different history lengths on one connection nobody negotiated: one
// Hello, then the two prompt graphs (different lengths, same structure)
// share the prefill slot and every decode step of either session patches
// the one decode slot — two installs in all, whatever the interleaving.
func TestPlanInterleavedSessionsShareSlots(t *testing.T) {
	const steps = 6
	srv := NewServer(device.A100)
	cli, tap := tapPair(t, srv)
	r := &runtime.LLMRunner{Model: planModel(), EP: cli}
	if _, err := r.InstallModelWeights(); err != nil {
		t.Fatal(err)
	}
	if n := count(tap.frames(t), ofType(transport.MsgHello)); n != 0 {
		t.Fatalf("%d Hello frames before the first repeatable exec (uploads must not negotiate)", n)
	}
	type live struct {
		s      *runtime.Session
		prompt []int64
		got    []int64
	}
	ls := []*live{{prompt: planPromptA}, {prompt: planPromptB}}
	for i, l := range ls {
		s, err := r.NewScopedSession(runtime.ModeSemAware, fmt.Sprintf("req%d/", i))
		if err != nil {
			t.Fatal(err)
		}
		l.s = s
	}
	for _, i := range []int{0, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 1} {
		l := ls[i]
		var tok int64
		var err error
		if len(l.got) == 0 {
			tok, err = l.s.Prefill(l.prompt)
		} else {
			tok, err = l.s.Step()
		}
		if err != nil {
			t.Fatal(err)
		}
		l.got = append(l.got, tok)
	}
	for _, l := range ls {
		if want := planOracle(t, l.prompt, steps); fmt.Sprint(l.got) != fmt.Sprint(want) {
			t.Fatalf("tokens %v, oracle %v", l.got, want)
		}
	}
	fs := tap.frames(t)
	if n := count(fs, ofType(transport.MsgHello)); n != 1 {
		t.Errorf("%d Hello frames, want exactly 1", n)
	}
	if n := count(fs, ofType(transport.MsgExec)); n != 0 {
		t.Errorf("%d full MsgExec frames on a plan connection", n)
	}
	if in, pa := count(fs, ofKind('I')), count(fs, ofKind('P')); in != 2 || pa != 2*steps-2 {
		t.Errorf("%d installs and %d patches, want 2 and %d", in, pa, 2*steps-2)
	}
	var prefills []sent
	for _, f := range fs {
		if f.t == transport.MsgExecPlan && f.slot == 0 {
			prefills = append(prefills, f)
		}
	}
	if len(prefills) != 2 || prefills[0].kind != 'I' || prefills[1].kind != 'P' {
		t.Errorf("prefill slot saw %d frames; want an install, then the shorter prompt as a patch", len(prefills))
	}
	if len(prefills) == 2 && len(prefills[1].payload)*3 > len(prefills[0].payload) {
		t.Errorf("patched prefill is %d bytes of a %d-byte install", len(prefills[1].payload), len(prefills[0].payload))
	}
}

// TestPlanPoolSegmentsInstallTwicePerMember: a member's prompt segment
// and step segment share a Graph.Name and differ in node count, so they
// take two slots — two installs per member, then patches only.
func TestPlanPoolSegmentsInstallTwicePerMember(t *testing.T) {
	const steps = 5
	pm, err := pool.NewManager(pool.Config{Model: planModel(), Strategy: pool.StrategyPipeline, RebalanceOnJoin: true})
	if err != nil {
		t.Fatal(err)
	}
	var taps []*tapConn
	for _, name := range []string{"a", "b"} {
		cli, tap := tapPair(t, NewServer(device.A100))
		taps = append(taps, tap)
		if err := pm.Join(name, cli, device.A100, cluster.Link{Bandwidth: 3.125e9}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(pm.Plan().Members()); got != 2 {
		t.Fatalf("plan spans %d members, want 2", got)
	}
	for i, prompt := range [][]int64{planPromptA, planPromptB} {
		s, err := pm.Runner().NewScopedSession(runtime.ModeSemAware, fmt.Sprintf("req%d/", i))
		if err != nil {
			t.Fatal(err)
		}
		got := []int64{}
		tok, err := s.Prefill(prompt)
		for ; err == nil && len(got) < steps-1; tok, err = s.Step() {
			got = append(got, tok)
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, tok)
		if want := planOracle(t, prompt, steps); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("tokens %v, oracle %v", got, want)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for i, tap := range taps {
		fs := tap.frames(t)
		if in, pa, full := count(fs, ofKind('I')), count(fs, ofKind('P')), count(fs, ofType(transport.MsgExec)); in != 2 || pa != 2*steps-2 || full != 0 {
			t.Errorf("member %d: %d installs, %d patches, %d full frames; want 2, %d, 0", i, in, pa, 2*steps-2, full)
		}
	}
}

// toyStep is a hand-built decode step at history length hist under a
// graph name: x appended to a resident cache, then masked scores.
func toyStep(name string, hist int, epoch uint32) *transport.Exec {
	b := lazy.NewBuilder(name)
	row := make([]float32, 4)
	for i := range row {
		row[i] = float32(hist + i)
	}
	x := b.Input("x", tensor.FromF32(tensor.Shape{1, 4}, row))
	cache := b.StatefulInputMeta("cache", tensor.Meta{DType: tensor.F32, Shape: tensor.Shape{hist, 4}})
	cat := b.Concat(0, cache, x)
	out := b.CausalMask(b.MatMulT(x, cat), hist)
	xt, _ := b.InputData("x")
	return &transport.Exec{
		Graph:  b.Graph(),
		Binds:  []transport.Binding{{Ref: "x", Inline: xt}, {Ref: "cache", Key: name + "/cache", Epoch: epoch}},
		Keep:   map[srg.NodeID]string{cat.ID(): name + "/cache"},
		Want:   []srg.NodeID{out.ID()},
		Repeat: true,
	}
}

// toyRig runs toy steps through a plan connection and, whole, through a
// second server that only ever sees legacy frames: the reference every
// plan reply must equal.
type toyRig struct {
	t        *testing.T
	srv, ref *Server
	cli      *transport.Client
	refCli   *transport.Client
	tap      *tapConn
}

func newToyRig(t *testing.T) *toyRig {
	g := &toyRig{t: t, srv: NewServer(device.A100), ref: NewServer(device.A100)}
	g.cli, g.tap = tapPair(t, g.srv)
	g.refCli, _ = wirePair(t, g.ref)
	return g
}

// seed uploads a graph's cache at history length hist on both servers
// and returns the plan server's epoch for it.
func (g *toyRig) seed(name string, hist int) uint32 {
	g.t.Helper()
	c := bigTensor(int64(hist), hist, 4)
	ack, err := g.cli.Upload(name+"/cache", c)
	if err != nil {
		g.t.Fatal(err)
	}
	if _, err := g.refCli.Upload(name+"/cache", c); err != nil {
		g.t.Fatal(err)
	}
	return ack.Epoch
}

// step runs one toy step on the plan connection and checks its reply
// against the legacy reference's: same results, modeled GPU time and
// kept sizes, and no attestation.
func (g *toyRig) step(name string, hist int, epoch uint32) error {
	g.t.Helper()
	ok, err := g.cli.Exec(toyStep(name, hist, epoch))
	if err != nil {
		return err
	}
	whole := toyStep(name, hist, 0)
	whole.Repeat = false
	want, err := g.refCli.Exec(whole)
	if err != nil {
		g.t.Fatal(err)
	}
	if ok.GraphFP != "" || want.GraphFP == "" {
		g.t.Errorf("%s@%d: attestation %q on the plan reply, %q on the legacy one", name, hist, ok.GraphFP, want.GraphFP)
	}
	if ok.GPUTimeNs != want.GPUTimeNs || fmt.Sprint(ok.Kept) != fmt.Sprint(want.Kept) {
		g.t.Errorf("%s@%d: plan reply gpu=%d kept=%v, legacy gpu=%d kept=%v",
			name, hist, ok.GPUTimeNs, ok.Kept, want.GPUTimeNs, want.Kept)
	}
	for id, w := range want.Results {
		if got := ok.Results[id]; got == nil || !got.Shape().Equal(w.Shape()) || !bytes.Equal(got.Bytes(), w.Bytes()) {
			g.t.Errorf("%s@%d: result %d differs from the legacy reference", name, hist, id)
		}
	}
	return nil
}

func (g *toyRig) kinds() string {
	var b []byte
	for _, f := range g.tap.frames(g.t) {
		if f.t == transport.MsgExecPlan {
			b = append(b, f.kind)
		}
	}
	return string(b)
}

// TestPlanSurvivesCrashAndStaleEpoch: a crash wipes the store, not the
// slot. The next plan frame patches fine and fails on its stale handle;
// the error reply makes the client forget the slot, so the good step
// that follows installs.
func TestPlanSurvivesCrashAndStaleEpoch(t *testing.T) {
	g := newToyRig(t)
	epoch := g.seed("t", 3)
	for hist := 3; hist < 6; hist++ {
		if err := g.step("t", hist, epoch); err != nil {
			t.Fatal(err)
		}
	}
	g.srv.Crash()
	if _, err := g.cli.Exec(toyStep("t", 6, epoch)); err == nil {
		t.Fatal("a step bound to pre-crash state succeeded")
	}
	// Recovery re-seeds the cache where the failed step wanted it.
	g.ref.Free("t/cache")
	epoch = g.seed("t", 6)
	for hist := 6; hist < 9; hist++ {
		if err := g.step("t", hist, epoch); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := g.kinds(), "IPPPIPP"; got != want {
		t.Errorf("plan frames %s, want %s (install, patches, the stale patch, install again)", got, want)
	}
}

// TestPlanErrorAfterApplyThenRetry: the server patches the slot before
// it executes, so an exec that fails has still moved the slot. The
// caller's retry of the very same step must not be diffed against a
// mirror the failure invalidated: it installs, and later steps patch.
func TestPlanErrorAfterApplyThenRetry(t *testing.T) {
	g := newToyRig(t)
	epoch := g.seed("t", 3)
	if err := g.step("t", 3, epoch); err != nil {
		t.Fatal(err)
	}
	g.srv.FailNextExecs(1)
	if _, err := g.cli.Exec(toyStep("t", 4, epoch)); err == nil {
		t.Fatal("injected exec failure did not surface")
	}
	for hist := 4; hist < 7; hist++ {
		if err := g.step("t", hist, epoch); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := g.kinds(), "IPIPP"; got != want {
		t.Errorf("plan frames %s, want %s", got, want)
	}
}

// TestPlanSlotReuseBeyondTheCap cycles more graphs than a connection has
// slots: every take-over installs over whatever the slot held, and each
// graph still computes its own step.
func TestPlanSlotReuseBeyondTheCap(t *testing.T) {
	g := newToyRig(t)
	const graphs = transport.PlanSlots + 4
	epochs := make([]uint32, graphs)
	for i := range epochs {
		epochs[i] = g.seed(fmt.Sprint("g", i), 2)
	}
	for round := 0; round < 2; round++ {
		for i := range epochs {
			if err := g.step(fmt.Sprint("g", i), 2+round, epochs[i]); err != nil {
				t.Fatalf("round %d graph %d: %v", round, i, err)
			}
		}
	}
	// Round-robin take-over under a cyclic sweep never finds its graph.
	if got := g.kinds(); got != string(bytes.Repeat([]byte{'I'}, 2*graphs)) {
		t.Errorf("plan frames %s, want %d installs", got, 2*graphs)
	}
	// A graph that stays patches.
	for hist := 4; hist < 7; hist++ {
		if err := g.step("g0", hist, epochs[0]); err != nil {
			t.Fatal(err)
		}
	}
	if got := g.kinds()[2*graphs:]; got != "IPP" {
		t.Errorf("settled graph sent %s, want IPP", got)
	}
	for _, f := range g.tap.frames(t) {
		if f.t == transport.MsgExecPlan && f.slot >= transport.PlanSlots {
			t.Fatalf("frame names slot %d of %d", f.slot, transport.PlanSlots)
		}
	}
}

// encRecorder notes the legacy encoding of every Exec a session hands
// its endpoint (a connection without dedup drops the naive mode's cache
// hints, so the reference does too).
type encRecorder struct {
	*transport.Client
	frames [][]byte
}

func (e *encRecorder) Exec(x *transport.Exec) (*transport.ExecOK, error) { return e.ExecCtx(nil, x) }

func (e *encRecorder) ExecCtx(ctx context.Context, x *transport.Exec) (*transport.ExecOK, error) {
	legacy := *x
	legacy.Binds = append([]transport.Binding(nil), x.Binds...)
	for i := range legacy.Binds {
		legacy.Binds[i].Cache = false
	}
	p, err := transport.EncodeExecPooled(&legacy)
	if err != nil {
		return nil, err
	}
	e.frames = append(e.frames, append([]byte(nil), p...))
	transport.ReleaseEncoded(p)
	return e.Client.ExecCtx(ctx, x)
}

// TestPlanLegacyServerKeepsLegacyBytes: against a server that grants
// nothing, a semantics-aware session says one Hello and then puts on the
// wire exactly EncodeExecPooled of each Exec; the blind modes never say
// Hello at all, whatever the server would grant.
func TestPlanLegacyServerKeepsLegacyBytes(t *testing.T) {
	const steps = 4
	for _, tc := range []struct {
		mode   runtime.Mode
		grant  uint32
		hellos int
	}{
		{runtime.ModeSemAware, 0, 1},
		{runtime.ModeNaive, transport.FeatAll, 0},
		{runtime.ModeDeltaKV, transport.FeatAll, 0},
	} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			srv := NewServer(device.A100)
			srv.SetWireFeatures(tc.grant)
			cli, tap := tapPair(t, srv)
			rec := &encRecorder{Client: cli}
			r := &runtime.LLMRunner{Model: planModel(), EP: rec}
			res, err := r.Generate(tc.mode, planPromptA, steps)
			if err != nil {
				t.Fatal(err)
			}
			if want := planOracle(t, planPromptA, steps); fmt.Sprint(res.Tokens) != fmt.Sprint(want) {
				t.Fatalf("tokens %v, oracle %v", res.Tokens, want)
			}
			fs := tap.frames(t)
			if n := count(fs, ofType(transport.MsgHello)); n != tc.hellos {
				t.Errorf("%d Hello frames, want %d", n, tc.hellos)
			}
			if n := count(fs, ofType(transport.MsgExecPlan)); n != 0 {
				t.Errorf("%d plan frames", n)
			}
			var execs [][]byte
			for _, f := range fs {
				if f.t == transport.MsgExec {
					execs = append(execs, f.payload)
				}
			}
			if len(execs) != len(rec.frames) {
				t.Fatalf("%d MsgExec frames on the wire, %d Execs dispatched", len(execs), len(rec.frames))
			}
			for i := range execs {
				if !bytes.Equal(execs[i], rec.frames[i]) {
					t.Fatalf("exec %d: wire bytes differ from EncodeExecPooled of the session's Exec", i)
				}
			}
		})
	}
}

// TestPlanFrameNeedsTheGrant: a plan frame on a connection that was not
// granted FeatPlan is refused, not executed.
func TestPlanFrameNeedsTheGrant(t *testing.T) {
	srv := NewServer(device.A100)
	srv.SetWireFeatures(transport.FeatAll &^ transport.FeatPlan)
	cli, _ := wirePair(t, srv)
	if granted, err := cli.Negotiate(nil, transport.FeatAll); err != nil || granted&transport.FeatPlan != 0 {
		t.Fatalf("granted %#x, err %v", granted, err)
	}
	if _, _, err := cli.Conn().Call(transport.MsgExecPlan, []byte{0, 1, 0, 0, 0, 0}); !transport.IsRemote(err) {
		t.Fatalf("plan frame without the grant: %v", err)
	}
	if calls := srv.Stats().ExecCalls; calls != 0 {
		t.Fatalf("%d execs ran", calls)
	}
}
