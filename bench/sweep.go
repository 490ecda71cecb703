package main

import (
	"context"
	"fmt"
	"os"
	"time"
)

// sweepRates are the fixed arrival rates chat_open is rerun at. The
// sweep is not gated: it is for issues that claim queueing gains, which
// report latency at each rate and the highest rate that meets the
// limits without a growing backlog.
var sweepRates = []float64{6, 12, 18, 24}

// sweepSeconds is how long the arrivals of each rate last.
const sweepSeconds = 13

// runSweep reruns chat_open at each rate for sweepSeconds of arrivals
// and prints TTFT and ITL at each, then the highest rate at which at
// least 95 % of the requests sent met the workload's limits and the
// backlog did not grow.
func runSweep(ctx context.Context, seed int64) int {
	base, err := findWorkload("chat_open")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	fmt.Printf("\n== sweep: chat_open at fixed rates, %d s each, limits TTFT <= %g ms and mean ITL <= %g ms ==\n",
		sweepSeconds, base.ttftLimitMs, base.itlLimitMs)
	fmt.Printf("%8s %6s %12s %12s %12s %10s %14s %10s\n",
		"req/s", "sent", "ttft_p50 ms", "ttft_p95 ms", "itl_p50 ms", "slo_ok", "gen_late_p99", "backlog")
	best := 0.0
	for _, rate := range sweepRates {
		w := *base
		w.rate, w.requests = rate, int(rate*sweepSeconds)
		t, _, err := setUp(ctx, &w, seed, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		reqs := genRequests(&w, seed, streamTimed, w.requests)
		results, _ := t.drive(ctx, reqs)
		t.close()

		c := tallyOf(results)
		lat := latenciesOf(results)
		ok := sloShare(&w, results, c.Sent)
		growing := backlogGrows(results)
		backlog := "steady"
		if growing {
			backlog = "growing"
		}
		fmt.Printf("%8.0f %6d %12.2f %12.2f %12.3f %10.3f %11.2f ms %10s\n",
			rate, c.Sent, ms(pct(lat.ttft, 0.5)), ms(pct(lat.ttft, 0.95)), ms(pct(lat.itl, 0.5)),
			ok, ms(pct(latesOf(results), 0.99)), backlog)
		if ok >= 0.95 && !growing && c.OK == c.Sent {
			best = rate
		}
	}
	fmt.Printf("highest rate with slo_ok_share >= 0.95 and no growing backlog: %.0f req/s\n", best)
	return 0
}

// backlogGrows compares how long requests took in the last third of
// the schedule with the first third: in an open loop an overloaded
// server shows as latency that keeps rising with arrival order.
func backlogGrows(results []*result) bool {
	third := len(results) / 3
	if third == 0 {
		return false
	}
	mean := func(rs []*result) time.Duration {
		var sum time.Duration
		n := 0
		for _, r := range rs {
			if r.outcome == outcomeOK {
				sum += r.total()
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / time.Duration(n)
	}
	first, last := mean(results[:third]), mean(results[len(results)-third:])
	return last > 2*first
}
