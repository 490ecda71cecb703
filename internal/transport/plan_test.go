package transport

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"
	"testing"

	"genie/internal/srg"
	"genie/internal/tensor"
)

// planExec is a miniature decode step at history length hist, with the
// tail a semantics-aware session gives one: a cache bound by key, a
// token inline, the appended cache kept, the result wanted.
func planExec(hist int) *Exec {
	g := srg.New("step")
	tok := g.MustAdd(&srg.Node{Op: "input", Ref: "tok", Output: srg.TensorMeta{Shape: []int{1, 4}}})
	cache := g.MustAdd(&srg.Node{Op: "input", Ref: "cache", Residency: srg.ResidencyStatefulKVCache,
		Cost: srg.CostHints{Bytes: int64(16 * hist)}, Output: srg.TensorMeta{Shape: []int{hist, 4}}})
	cat := g.MustAdd(&srg.Node{Op: "concat", Inputs: []srg.NodeID{cache, tok},
		Attrs: map[string]string{"dim": "0"}, Output: srg.TensorMeta{Shape: []int{hist + 1, 4}}})
	out := g.MustAdd(&srg.Node{Op: "causal_mask", Inputs: []srg.NodeID{cat},
		Attrs:  map[string]string{"offset": strconv.Itoa(hist)},
		Cost:   srg.CostHints{FLOPs: float64(8 * hist)},
		Output: srg.TensorMeta{Shape: []int{hist + 1, 4}}})
	return &Exec{
		Graph: g,
		Binds: []Binding{
			{Ref: "tok", Inline: tensor.FromF32(tensor.Shape{1, 4}, []float32{1, 2, 3, float32(hist)})},
			{Ref: "cache", Key: "s/cache", Epoch: 2},
		},
		Keep:   map[srg.NodeID]string{cat: "s/cache"},
		Want:   []srg.NodeID{out},
		Repeat: true,
	}
}

// TestExecPlanFramesDecodeToTheLegacyExec walks a slot through an
// install and a run of patches: what the server decodes from each plan
// frame re-encodes to exactly the legacy MsgExec payload of that step,
// and a patch frame is a fraction of it.
func TestExecPlanFramesDecodeToTheLegacyExec(t *testing.T) {
	slots := make([]*srg.Graph, PlanSlots)
	var base *srg.Graph
	for i, hist := range []int{3, 4, 5, 9, 6} {
		x := planExec(hist)
		legacy, err := EncodeExec(x)
		if err != nil {
			t.Fatal(err)
		}
		frame, err := encodeExecPlan(5, base, x)
		if err != nil {
			t.Fatal(err)
		}
		if wantKind := map[bool]uint8{true: planInstall, false: planPatch}[i == 0]; frame[0] != 5 || frame[1] != wantKind {
			t.Fatalf("hist %d: frame header slot %d kind %d, want slot 5 kind %d", hist, frame[0], frame[1], wantKind)
		}
		if i == 0 && len(frame) != len(legacy)+2 {
			t.Errorf("install frame is %d bytes, want the legacy %d + 2", len(frame), len(legacy))
		}
		if i > 0 && len(frame) >= len(legacy)/2 {
			t.Errorf("hist %d: patch frame is %d bytes of a %d-byte legacy frame", hist, len(frame), len(legacy))
		}
		got, err := DecodeExecPlan(frame, slots)
		if err != nil {
			t.Fatalf("hist %d: %v", hist, err)
		}
		if !got.Repeat || got.Graph != slots[5] {
			t.Fatalf("hist %d: decoded exec does not alias its slot", hist)
		}
		back, err := EncodeExec(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, legacy) {
			t.Fatalf("hist %d: plan frame decodes to a different exec than the legacy frame carries", hist)
		}
		ReleaseEncoded(frame)
		base = x.Graph
	}

	// A structural change under the same key travels whole.
	other := planExec(6)
	other.Graph.Node(3).Op = "rope"
	frame, err := encodeExecPlan(5, base, other)
	if err != nil {
		t.Fatal(err)
	}
	if frame[1] != planInstall {
		t.Fatal("structural change was sent as a patch")
	}
}

func TestDecodeExecPlanFailureEmptiesTheSlot(t *testing.T) {
	install, err := encodeExecPlan(1, nil, planExec(3))
	if err != nil {
		t.Fatal(err)
	}
	patch, err := encodeExecPlan(1, planExec(3).Graph, planExec(4))
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string][]byte{
		"truncated tail": patch[:len(patch)-2],
		"bad kind":       append([]byte{1, 7}, patch[2:]...),
		"bad patch":      append(append([]byte{}, patch[:planHeader]...), bytes.Repeat([]byte{0xff}, len(patch)-planHeader)...),
	} {
		slots := make([]*srg.Graph, PlanSlots)
		if _, err := DecodeExecPlan(install, slots); err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeExecPlan(bad, slots); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if slots[1] != nil {
			t.Errorf("%s: slot still holds a graph after the failure", name)
		}
		// The client forgot the slot too; a patch now is refused by name.
		if _, err := DecodeExecPlan(patch, slots); err == nil || !isUnknownPlan(&RemoteError{Msg: err.Error()}) {
			t.Errorf("%s: patch into the emptied slot: %v", name, err)
		}
	}
	if _, err := DecodeExecPlan(append([]byte{PlanSlots, planPatch}, patch[2:]...), make([]*srg.Graph, PlanSlots)); !IsFrameError(err) {
		t.Errorf("slot out of range: %v", err)
	}
}

func TestClientPlanSlotsKeyAndReuse(t *testing.T) {
	c := &Client{}
	named := func(name string, nodes int) *srg.Graph {
		g := srg.New(name)
		for i := 0; i < nodes; i++ {
			g.MustAdd(&srg.Node{Op: "input", Ref: strconv.Itoa(i)})
		}
		return g
	}
	a, b := c.planSlotFor(named("seg", 3)), c.planSlotFor(named("seg", 5))
	if a == b {
		t.Fatal("same name, different node count must not share a slot")
	}
	if c.planSlotFor(named("seg", 3)) != a {
		t.Fatal("a key lost its slot")
	}
	for i := 0; i < PlanSlots; i++ {
		c.planSlotFor(named(fmt.Sprint("g", i), 1))
	}
	if len(c.plans) != PlanSlots {
		t.Fatalf("%d slots, want the cap %d", len(c.plans), PlanSlots)
	}
	// Both early keys were taken over; coming back claims a slot afresh
	// with nothing to diff against.
	i := c.planSlotFor(named("seg", 3))
	if c.plans[i].g != nil || c.plans[i].name != "seg" || c.plans[i].nodes != 3 {
		t.Fatalf("reclaimed slot %+v", c.plans[i])
	}
}

// TestConnRoundTripsDoNotInterleave shares one conn between a pinging
// goroutine and two exec'ing ones: every caller must read its own reply.
// (With the lock only around the send, they read each other's.)
func TestConnRoundTripsDoNotInterleave(t *testing.T) {
	cc, sc := Pipe(nil, nil)
	defer cc.Close()
	go func() {
		defer sc.Close()
		for {
			mt, p, err := sc.Recv()
			if err != nil {
				return
			}
			switch mt {
			case MsgPing:
				err = sc.Send(MsgPong, nil)
			case MsgExec:
				var x *Exec
				if x, err = DecodeExec(p); err == nil {
					err = sc.Send(MsgExecOK, EncodeExecOK(&ExecOK{GPUTimeNs: int64(x.Want[0])}))
				}
			}
			if err != nil {
				return
			}
		}
	}()
	client := NewClient(cc)
	const rounds = 200
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, err := client.Ping(); err != nil {
				t.Errorf("ping %d: %v", i, err)
				return
			}
		}
	}()
	for id := srg.NodeID(1); id <= 2; id++ {
		wg.Add(1)
		go func(id srg.NodeID) {
			defer wg.Done()
			x := planExec(3)
			x.Repeat = false
			x.Want = []srg.NodeID{id}
			for i := 0; i < rounds; i++ {
				ok, err := client.Exec(x)
				if err != nil {
					t.Errorf("exec %d of caller %d: %v", i, id, err)
					return
				}
				if ok.GPUTimeNs != int64(id) {
					t.Errorf("caller %d read caller %d's reply", id, ok.GPUTimeNs)
					return
				}
			}
		}(id)
	}
	wg.Wait()
}

func FuzzDecodeExecPlan(f *testing.F) {
	install, err := encodeExecPlan(0, nil, planExec(3))
	if err != nil {
		f.Fatal(err)
	}
	patch, err := encodeExecPlan(0, planExec(3).Graph, planExec(4))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(install, patch)
	f.Add(install, patch[:len(patch)-3])                                         // truncated tail
	f.Add(install, append([]byte{9}, patch[1:]...))                              // a slot nothing was installed in
	f.Add(install, append([]byte{PlanSlots}, patch[1:]...))                      // no such slot
	f.Add(install, []byte{0, planPatch, 9, 0, 0, 0, 1, 0, 0, 0, 77, 0, 0, 0, 2}) // patch of node 77
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, first, second []byte) {
		slots := make([]*srg.Graph, PlanSlots)
		for _, frame := range [][]byte{first, second} {
			x, err := DecodeExecPlan(frame, slots)
			if err != nil {
				continue
			}
			// What decodes is an exec the server can run and re-encode.
			if x.Graph == nil || !x.Repeat {
				t.Fatal("decoded plan exec has no resident graph")
			}
			if _, err := EncodeExec(x); err != nil {
				t.Fatalf("decoded plan exec fails to re-encode: %v", err)
			}
		}
	})
}
