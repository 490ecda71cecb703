// Package timerleakdata is genie-lint test fixture data for the
// timer-leak analyzer: timers allocated in loops need a Stop in the
// loop body, time.Tick is never stoppable, and the interprocedural
// summaries extend the rule through helpers.
package timerleakdata

import "time"

// tickNeverStops: time.Tick anywhere is a process-lifetime leak.
func tickNeverStops(work func()) {
	for range time.Tick(time.Second) { // want "time.Tick's ticker can never be stopped"
		work()
	}
}

// afterInSelect leaks one timer per iteration another case wins.
func afterInSelect(done chan struct{}, work chan int) {
	for {
		select {
		case <-work:
		case <-time.After(time.Second): // want "time.After in a multi-case select inside a loop"
			return
		case <-done:
			return
		}
	}
}

// plainAfterSleep is always consumed — a sleep, not a leak.
func plainAfterSleep(n int) {
	for i := 0; i < n; i++ {
		<-time.After(time.Millisecond)
	}
}

// timerNoStop allocates per iteration without ever stopping.
func timerNoStop(n int) {
	for i := 0; i < n; i++ {
		t := time.NewTimer(time.Second) // want "allocated in a loop without a Stop"
		<-t.C
	}
}

// timerStopped stops in the body; fine.
func timerStopped(work chan int, n int) {
	for i := 0; i < n; i++ {
		t := time.NewTimer(time.Second)
		select {
		case <-work:
		case <-t.C:
		}
		t.Stop()
	}
}

// deferredStopInLoop piles up timers until the function returns.
func deferredStopInLoop(n int) {
	for i := 0; i < n; i++ {
		t := time.NewTimer(time.Second) // want "only a deferred t.Stop"
		defer t.Stop()
		<-t.C
	}
}

// leakyDelay allocates a timer nothing stops — harmless once, but its
// summary marks every looping caller.
func leakyDelay(work chan int) {
	t := time.NewTimer(time.Millisecond)
	select {
	case <-work:
	case <-t.C:
	}
}

// churnLoop calls it every iteration: unbounded timer pile-up the
// AST-local pass could not see.
func churnLoop(work chan int, n int) {
	for i := 0; i < n; i++ {
		leakyDelay(work) // want "each loop iteration calls leakyDelay, which leaks a timer"
	}
}

// boundedDelay stops its timer; looping callers are fine.
func boundedDelay(work chan int) {
	t := time.NewTimer(time.Millisecond)
	defer t.Stop()
	select {
	case <-work:
	case <-t.C:
	}
}

func politeLoop(work chan int, n int) {
	for i := 0; i < n; i++ {
		boundedDelay(work)
	}
}

// leakyWorker leaks a timer per iteration of its own loop: reported
// once, here.
func leakyWorker(work chan int) {
	for {
		t := time.NewTimer(time.Second) // want "allocated in a loop without a Stop"
		select {
		case <-work:
		case <-t.C:
		}
	}
}

// startWorkers spawns one worker per lane. The spawned worker is its
// own root, so its leak is not reported a second time at the go
// statement; an argument evaluated in the loop still is.
func startWorkers(work chan int, n int) {
	for i := 0; i < n; i++ {
		go leakyWorker(work)
	}
	for i := 0; i < n; i++ {
		go startOne(leakyChan(work)) // want "each loop iteration calls leakyChan, which leaks a timer"
	}
}

func startOne(work chan int) {}

// leakyChan runs in the caller's goroutine even under go.
func leakyChan(work chan int) chan int {
	leakyDelay(work)
	return work
}
