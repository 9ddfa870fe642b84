package maint

import (
	"sync"
	"time"

	"repro/internal/vmanager"
)

// Intervals sets how often a Loop runs each action; zero leaves the
// action off.
type Intervals struct {
	Reclaim, Replicate, Verify time.Duration
}

// Loop is the background maintenance scheduler: the one ticker mechanism
// behind the cluster harness's and blobseerd's maintenance loops.
type Loop struct {
	stop chan struct{}
	wg   sync.WaitGroup
}

// StartLoop runs e's actions at their intervals until Stop. Reclaim and
// replicate share a schedule — whenever both are due they run as ONE pass
// over one liveness walk. Verify gets a schedule of its own: a paced scrub
// of a large deployment takes hours and must not hold reclamation back.
// onPass, when non-nil, sees every pass's outcome (pass errors are not
// fatal: whatever failed is retried next pass).
func StartLoop(e *Engine, iv Intervals, onPass func(Action, vmanager.Counters, error)) *Loop {
	l := &Loop{stop: make(chan struct{})}
	l.schedule(e, onPass, map[Action]time.Duration{Reclaim: iv.Reclaim, Replicate: iv.Replicate})
	l.schedule(e, onPass, map[Action]time.Duration{Verify: iv.Verify})
	return l
}

// schedule starts one goroutine that sleeps until the earliest of the
// given actions is due, runs every due action in one pass, and re-arms
// them on a fixed cadence (like a ticker, a slow pass drops the ticks it
// overran instead of queueing them).
func (l *Loop) schedule(e *Engine, onPass func(Action, vmanager.Counters, error), every map[Action]time.Duration) {
	next := make(map[Action]time.Time)
	for a, d := range every {
		if d > 0 {
			next[a] = time.Now().Add(d)
		}
	}
	if len(next) == 0 {
		return
	}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		for {
			var wake time.Time
			for _, t := range next {
				if wake.IsZero() || t.Before(wake) {
					wake = t
				}
			}
			select {
			case <-l.stop:
				return
			case <-time.After(time.Until(wake)):
			}
			var due Action
			for a, t := range next {
				if !t.After(time.Now()) {
					due |= a
				}
			}
			st, err := e.Run(due)
			if onPass != nil {
				onPass(due, st, err)
			}
			for a, t := range next {
				if due&a != 0 {
					if t = t.Add(every[a]); t.Before(time.Now()) {
						t = time.Now()
					}
					next[a] = t
				}
			}
		}
	}()
}

// Stop ends the loop and returns once any pass in progress has finished.
func (l *Loop) Stop() {
	close(l.stop)
	l.wg.Wait()
}
