package transport

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"genie/internal/codec"
	"genie/internal/srg"
)

// Resident step plans (DESIGN.md §11, "Resident plans"; FeatPlan). A
// decode loop captures a structurally identical SRG every step, so on a
// connection that granted FeatPlan an exec marked Exec.Repeat travels as
// MsgExecPlan: the first one installs its graph in a numbered slot the
// server's Serve loop keeps decoded, and each later one carries only the
// srg diff against the graph the slot holds, plus the usual tail.
//
//	u8 slot | u8 kind | u32 len | body | tail (exactly MsgExec's)
//
// kind planInstall: body is the graph's full encoding, replacing whatever
// the slot held. kind planPatch: body is srg.AppendDiff's output against
// the slot's graph. Slots hold graphs only, never tensors, so a server
// crash or an epoch change does not concern them; a dead connection
// takes both sides' slots with it (one Client = one Conn = one Serve
// loop).

// PlanSlots is how many graphs one connection keeps resident — decode,
// prefill and a pool's per-member segments need a handful.
const PlanSlots = 16

const (
	planPatch uint8 = iota
	planInstall
)

// planHeader is u8 slot | u8 kind | u32 len.
const planHeader = 6

// planSlot is the client's mirror of one server slot: the last graph
// written to it on this connection (nil when the server may hold
// anything — before the first install and after any failed plan exec),
// under the key that routes graphs to it.
type planSlot struct {
	name  string
	nodes int
	g     *srg.Graph
}

// planSlotFor returns the slot for graphs of g's name and node count,
// taking over the oldest slot round-robin once all are in use. The
// caller holds the conn's round-trip lock.
func (c *Client) planSlotFor(g *srg.Graph) int {
	for i := range c.plans {
		if c.plans[i].name == g.Name && c.plans[i].nodes == g.Len() {
			return i
		}
	}
	i := len(c.plans)
	if i < PlanSlots {
		c.plans = append(c.plans, planSlot{})
	} else {
		i = c.planNext
		c.planNext = (c.planNext + 1) % PlanSlots
	}
	c.plans[i] = planSlot{name: g.Name, nodes: g.Len()}
	return i
}

// encodeExecPlan encodes x for slot into pooled scratch: a patch against
// base when base has x.Graph's structure, otherwise an install.
func encodeExecPlan(slot uint8, base *srg.Graph, x *Exec) ([]byte, error) {
	if base != nil {
		// A patch is a few dozen bytes per moved node; a short guess only
		// costs an append's regrowth.
		w := codec.Writer{B: encPool.Get(planHeader + 32*x.Graph.Len() + execTailSize(x))[:0]}
		w.U8(slot)
		w.U8(planPatch)
		w.U32(0)
		var ok bool
		if w.B, ok = srg.AppendDiff(w.B, base, x.Graph); ok {
			w.SetU32(2, uint32(len(w.B)-planHeader))
			putExecTail(&w, x)
			return w.B, nil
		}
		ReleaseEncoded(w.B)
	}
	return encodeGraphFrame([]byte{slot, planInstall}, x)
}

// DecodeExecPlan parses a MsgExecPlan payload against slots, the graphs
// this connection has installed (PlanSlots of them, owned by the serving
// loop): an install decodes its graph into the slot, a patch is applied
// to the slot's graph in place. The returned Exec aliases the slot's
// graph until the connection's next plan frame and has Repeat set. Any
// error empties the slot — the client forgets it on every error reply,
// so the next frame for it is an install.
func DecodeExecPlan(b []byte, slots []*srg.Graph) (x *Exec, err error) {
	r := codec.NewReader(b)
	slot, kind := int(r.U8()), r.U8()
	body := r.Take(int(r.U32()))
	if r.Err() != nil {
		return nil, frameErr(r.Err())
	}
	if slot >= len(slots) {
		return nil, frameErrorf("transport: plan slot %d of %d", slot, len(slots))
	}
	defer func() {
		if err != nil {
			slots[slot] = nil
		}
	}()
	switch kind {
	case planInstall:
		g, err := srg.Decode(body)
		if err != nil {
			return nil, err
		}
		slots[slot] = g
	case planPatch:
		if slots[slot] == nil {
			return nil, fmt.Errorf("transport: unknown plan slot %d", slot)
		}
		if err := slots[slot].ApplyDiff(body); err != nil {
			return nil, err
		}
	default:
		return nil, frameErrorf("transport: invalid plan kind %d", kind)
	}
	x = &Exec{Graph: slots[slot], Repeat: true}
	readExecTail(&r, x)
	return x, frameErr(r.Err())
}

// isUnknownPlan classifies the server's "nothing installed in that
// slot" rejection, recoverable by sending the graph whole.
func isUnknownPlan(err error) bool {
	var re *RemoteError
	return errors.As(err, &re) && strings.Contains(re.Msg, "unknown plan slot")
}

// helloOnce asks for FeatPlan on a connection nobody negotiated — once,
// before its first repeatable exec, so uploads, pings and un-hinted
// execs never say Hello. A server that refuses (grants 0, or does not
// know MsgHello) leaves the conn on legacy frames.
func (c *Client) helloOnce(ctx context.Context) error {
	if c.helloed.Load() {
		return nil
	}
	c.conn.callMu.Lock()
	defer c.conn.callMu.Unlock()
	if c.helloed.Load() {
		return nil
	}
	_, err := c.negotiateLocked(ctx, FeatPlan)
	if IsRemote(err) {
		c.helloed.Store(true)
		return nil
	}
	return err
}
