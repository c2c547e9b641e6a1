package taintmap

import "dista/internal/core/taint"

// UncachedClient is an ablation baseline: it contacts the Store on
// *every* Register and Lookup, disabling both the per-node Global ID
// memo (Fig. 9 step ② "does not need to request a Global ID again") and
// the receiver-side id -> taint cache. It exists to quantify what the
// paper's caching design saves; production code should use
// LocalClient/RemoteClient.
type UncachedClient struct {
	store *Store
	tree  *taint.Tree
}

var _ Client = (*UncachedClient)(nil)

// NewUncachedClient returns the ablation client.
func NewUncachedClient(store *Store, tree *taint.Tree) *UncachedClient {
	return &UncachedClient{store: store, tree: tree}
}

// Register implements Client without consulting or updating any cache.
func (c *UncachedClient) Register(t taint.Taint) (uint32, error) {
	if t.Empty() {
		return 0, nil
	}
	blob, err := taint.MarshalTaint(t)
	if err != nil {
		return 0, err
	}
	return c.store.RegisterBlob(blob), nil
}

// Lookup implements Client without any cache.
func (c *UncachedClient) Lookup(id uint32) (taint.Taint, error) {
	if id == 0 {
		return taint.Taint{}, nil
	}
	blob, err := c.store.LookupBlob(id)
	if err != nil {
		return taint.Taint{}, err
	}
	return c.tree.UnmarshalTaint(blob)
}

// RegisterBatch implements Client; the ablation still pays one store
// call per taint, since skipping work is exactly what it must not do.
func (c *UncachedClient) RegisterBatch(ts []taint.Taint) ([]uint32, error) {
	ids := make([]uint32, len(ts))
	for i, t := range ts {
		id, err := c.Register(t)
		if err != nil {
			return nil, err
		}
		ids[i] = id
	}
	return ids, nil
}

// LookupBatch implements Client, one store call per id.
func (c *UncachedClient) LookupBatch(ids []uint32) ([]taint.Taint, error) {
	ts := make([]taint.Taint, len(ids))
	for i, id := range ids {
		t, err := c.Lookup(id)
		if err != nil {
			return nil, err
		}
		ts[i] = t
	}
	return ts, nil
}

// Learn implements Client by ignoring the definitions: with no memo to
// fill, every lookup still goes to the store.
func (c *UncachedClient) Learn([]uint32, [][]byte) error { return nil }

// Close implements Client.
func (c *UncachedClient) Close() error { return nil }
