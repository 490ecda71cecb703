package obs

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"time"
)

// chromeEvent is one entry of the Chrome trace-event format ("X"
// complete events plus "M" metadata), loadable in chrome://tracing and
// Perfetto. Timestamps and durations are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts,omitempty"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  uint32         `json:"pid"`
	Tid  uint64         `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
	DisplayUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace renders spans as Chrome trace-event JSON. Each
// process label becomes a pid row (with a process_name metadata event);
// each trace ID becomes a tid, so one request's spans nest on one
// track and concurrent requests stack as parallel tracks.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	trace := chromeTrace{DisplayUnit: "ms", TraceEvents: []chromeEvent{}}
	var epoch time.Time
	for _, s := range spans {
		if epoch.IsZero() || s.Start.Before(epoch) {
			epoch = s.Start
		}
	}
	named := map[uint32]bool{}
	for _, s := range spans {
		pid := procID(s.Proc)
		if !named[pid] {
			named[pid] = true
			name := s.Proc
			if name == "" {
				name = "proc"
			}
			trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
				Name: "process_name", Ph: "M", Pid: pid,
				Args: map[string]any{"name": name},
			})
		}
		args := map[string]any{
			"trace":  fmt.Sprintf("%#x", s.Trace),
			"span":   s.ID,
			"parent": s.Parent,
		}
		for _, a := range s.Attrs {
			args[a.Key] = a.Val
		}
		trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
			Name: s.Name,
			Ph:   "X",
			Ts:   float64(s.Start.Sub(epoch)) / float64(time.Microsecond),
			Dur:  float64(s.Dur) / float64(time.Microsecond),
			Pid:  pid,
			Tid:  s.Trace,
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(trace)
}

// procID derives a stable pid for a process label.
func procID(proc string) uint32 {
	if proc == "" {
		return 1
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(proc))
	id := h.Sum32() & 0x7fffffff
	if id == 0 {
		id = 1
	}
	return id
}
