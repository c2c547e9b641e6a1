package taintmap

import (
	"sync"
	"sync/atomic"
	"time"

	"dista/internal/netsim"
)

// Budget is a token bucket gating all traffic a client generates *in
// response to failure*: reconnect dials, hedged reads, retries. First
// tries are never charged — the budget bounds the amplification factor,
// so a brownout (every request slow, every caller retrying) cannot be
// turned into a retry storm that finishes the server off. A nil *Budget
// is a valid always-allow budget.
//
// The bucket holds at most burst tokens and refills at rate tokens per
// second. Time comes from the injected clock so tests drive refill
// without wall-clock sleeps.
type Budget struct {
	mu     sync.Mutex
	clk    netsim.Clock
	rate   float64 // tokens per second
	burst  float64 // bucket capacity
	tokens float64
	last   time.Time

	taken  atomic.Int64
	denied atomic.Int64
}

// newBudgetClock returns a budget on clk refilling at rate tokens/second
// with capacity burst, starting full. Non-positive rate or burst returns
// nil — the always-allow budget.
func newBudgetClock(rate, burst float64, clk netsim.Clock) *Budget {
	if rate <= 0 || burst <= 0 {
		return nil
	}
	return &Budget{clk: clk, rate: rate, burst: burst, tokens: burst, last: clk.Now()}
}

// TryTake removes n tokens if available and reports whether it did. It
// never blocks: a denied caller must degrade (give up the hedge, skip
// the reconnect attempt), not wait. On a nil budget it always succeeds.
func (b *Budget) TryTake(n float64) bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	now := b.clk.Now()
	if el := now.Sub(b.last); el > 0 {
		b.tokens += el.Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	ok := b.tokens >= n
	if ok {
		b.tokens -= n
	}
	b.mu.Unlock()
	if ok {
		b.taken.Add(1)
	} else {
		b.denied.Add(1)
	}
	return ok
}

// Tokens returns the current token count (after refill), for gauges.
func (b *Budget) Tokens() float64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.clk.Now()
	if el := now.Sub(b.last); el > 0 {
		b.tokens += el.Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
	return b.tokens
}

// Denied returns how many takes the budget has refused.
func (b *Budget) Denied() int64 {
	if b == nil {
		return 0
	}
	return b.denied.Load()
}

// Taken returns how many takes the budget has granted.
func (b *Budget) Taken() int64 {
	if b == nil {
		return 0
	}
	return b.taken.Load()
}
