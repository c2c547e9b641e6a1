// Package mustcheck seeds discarded-result violations on the real
// internal/taintmap API for the distavet mustcheck golden test. The
// clients are never constructed — the code only has to type-check.
package mustcheck

import (
	"dista/internal/core/taint"
	"dista/internal/taintmap"
)

func bad(c *taintmap.RemoteClient, r *taintmap.LocalClient, s *taintmap.Store, ts []taint.Taint) {
	c.Register(taint.Taint{})         // want "result of Register discarded"
	c.LookupBatch([]uint32{1, 2})     // want "result of LookupBatch discarded"
	s.RegisterBlob([]byte("blob"))    // want "result of RegisterBlob discarded"
	go r.RegisterBatch(ts)            // want "result of RegisterBatch discarded"
	defer c.Lookup(7)                 // want "result of Lookup discarded"
	_, _ = c.Register(taint.Taint{})  // want "result of Register assigned to blanks"
	_, _ = r.LookupBatch([]uint32{3}) // want "result of LookupBatch assigned to blanks"
}

// The cluster client is part of the same must-check surface: a dropped
// Register loses the Global ID the routing minted, a dropped Lookup
// hides which replica (if any) resolved the id.
func badCluster(cc *taintmap.ClusterClient, ts []taint.Taint) {
	cc.Register(taint.Taint{})         // want "result of Register discarded"
	cc.Lookup(9)                       // want "result of Lookup discarded"
	cc.RegisterBatch(ts)               // want "result of RegisterBatch discarded"
	go cc.LookupBatch([]uint32{4})     // want "result of LookupBatch discarded"
	_, _ = cc.Register(taint.Taint{})  // want "result of Register assigned to blanks"
	_, _ = cc.LookupBatch([]uint32{5}) // want "result of LookupBatch assigned to blanks"
}

// The retry budget's verdict is part of the surface: a discarded
// TryTake charges the bucket AND ignores the denial, which is exactly
// the retry storm the budget exists to prevent.
func badBudget(b *taintmap.Budget) {
	b.TryTake(1)       // want "result of TryTake discarded"
	go b.TryTake(1)    // want "result of TryTake discarded"
	_ = b.TryTake(0.5) // want "result of TryTake assigned to blanks"
}

func goodBudget(b *taintmap.Budget) bool {
	if !b.TryTake(1) {
		return false
	}
	ok := b.TryTake(1)
	return ok
}

func goodCluster(cc *taintmap.ClusterClient) error {
	id, err := cc.Register(taint.Taint{})
	if err != nil {
		return err
	}
	if _, err := cc.Lookup(id); err != nil {
		return err
	}
	if _, err := cc.Refresh(); err != nil { // membership ops are not Register*/Lookup*
		return err
	}
	return cc.Close()
}

func good(c *taintmap.RemoteClient, s *taintmap.Store) error {
	id, err := c.Register(taint.Taint{})
	if err != nil {
		return err
	}
	_ = id
	if _, err := c.Lookup(id); err != nil {
		return err
	}
	blob := s.RegisterBlob([]byte("kept"))
	_ = blob
	s.Reset()        // not part of the must-check surface
	return c.Close() // neither is Close
}

func suppressed(c *taintmap.RemoteClient) {
	//lint:ignore distavet/mustcheck warm-up call; the memo is the result
	c.Lookup(1)
}

// lookalike has the right name but the wrong package, so it is out of
// scope: mustcheck keys on the taintmap package, not the method name
// alone.
type lookalike struct{}

func (lookalike) Register(t taint.Taint) (uint32, error) { return 0, nil }

func outOfScope(l lookalike) {
	l.Register(taint.Taint{})
}
