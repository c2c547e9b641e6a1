// Package lockorder seeds violations of the documented mutex orders
// for the distavet lockorder golden test. The types mirror the shapes
// the analyzer keys on — (type name, field name) pairs Tree.mu,
// shard.mu, pageTable.growMu, admission.mu, ClusterClient.mu —
// without importing the real packages, whose lock fields are
// unexported. The admission mirror also carries the blocking admit()
// / non-blocking release() method pair the analyzer models.
package lockorder

import "sync"

type Tree struct {
	mu sync.Mutex
}

type shard struct {
	mu     sync.Mutex
	byBlob map[string]uint32
}

// pageTable holds growMu, as the store's page table does.
type pageTable struct {
	growMu sync.Mutex
}

type Store struct {
	shards [4]shard
	table  *pageTable
}

// admission mirrors the server's mutex+cond semaphore: admit() parks
// on the cond var until a slot frees, release() only signals.
type admission struct {
	mu    sync.Mutex
	cond  *sync.Cond
	slots int
}

func (a *admission) admit() {
	a.mu.Lock()
	for a.slots == 0 {
		a.cond.Wait()
	}
	a.slots--
	a.mu.Unlock()
}

func (a *admission) release() {
	a.mu.Lock()
	a.slots++
	a.cond.Signal()
	a.mu.Unlock()
}

// ClusterClient mirrors the membership guard; the request path reads
// an atomic routing table and never touches mu.
type ClusterClient struct {
	mu    sync.Mutex
	epoch uint64
}

func badTwoTrees(a, b *Tree) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock() // want "at most one tree mutex"
	b.mu.Unlock()
}

func badShardUnderGrow(s *Store) {
	s.table.growMu.Lock()
	s.shards[0].mu.Lock() // want "shard locks come before growMu"
	s.shards[0].mu.Unlock()
	s.table.growMu.Unlock()
}

// badLoopTrees models locking a list of trees without releasing: the
// second symbolic acquisition still trips the rule via loop-carried
// held state.
func badLoopTrees(ts []*Tree) {
	for _, t := range ts {
		t.mu.Lock() // want "at most one tree mutex"
	}
}

func goodHandOver(a, b *Tree) {
	a.mu.Lock()
	a.mu.Unlock()
	b.mu.Lock()
	b.mu.Unlock()
}

func goodDocumentedOrder(s *Store) {
	// RegisterBlob's order: shard lock first, growMu inside it.
	s.shards[1].mu.Lock()
	s.table.growMu.Lock()
	s.table.growMu.Unlock()
	s.shards[1].mu.Unlock()
}

func goodResetPattern(s *Store) {
	// Reset's order: every shard, then growMu; shard self-nesting is
	// allowed because the ranks are disjoint by construction.
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
	s.table.growMu.Lock()
	s.table.growMu.Unlock()
	for i := range s.shards {
		s.shards[i].mu.Unlock()
	}
}

func goodBranches(a, b *Tree, cond bool) {
	if cond {
		a.mu.Lock()
		a.mu.Unlock()
	}
	b.mu.Lock() // the branch released its tree mutex on every path
	b.mu.Unlock()
}

func goodClosure(a *Tree) {
	a.mu.Lock()
	defer a.mu.Unlock()
	f := func(b *Tree) {
		// Runs later on its own stack; fresh held set.
		b.mu.Lock()
		b.mu.Unlock()
	}
	f(a)
}

// badAdmitUnderShard calls the blocking admit() with a shard lock
// held: every writer to that shard now waits behind the admission
// queue.
func badAdmitUnderShard(s *Store, a *admission) {
	s.shards[0].mu.Lock()
	a.admit() // want "blocks on admission.mu while shard.mu is held"
	s.shards[0].mu.Unlock()
	a.release()
}

// badAdmissionUnderTree takes the semaphore mutex directly under a
// tree mutex — same inversion without the method sugar.
func badAdmissionUnderTree(t *Tree, a *admission) {
	t.mu.Lock()
	a.mu.Lock() // want "admission.mu acquired while Tree.mu is held"
	a.mu.Unlock()
	t.mu.Unlock()
}

// badLockUnderCluster nests a shard lock under the membership guard,
// which is a leaf.
func badLockUnderCluster(c *ClusterClient, s *Store) {
	c.mu.Lock()
	s.shards[2].mu.Lock() // want "shard.mu acquired while ClusterClient.mu is held"
	s.shards[2].mu.Unlock()
	c.mu.Unlock()
}

// goodAdmitFirst is the documented shape: admit before any lock,
// release after every lock is gone.
func goodAdmitFirst(s *Store, a *admission) {
	a.admit()
	s.shards[0].mu.Lock()
	s.shards[0].mu.Unlock()
	a.release()
}

// goodReleaseUnderLock: release() only signals under a short critical
// section of its own and is safe (and common) with locks held.
func goodReleaseUnderLock(s *Store, a *admission) {
	a.admit()
	s.shards[1].mu.Lock()
	a.release()
	s.shards[1].mu.Unlock()
}

// goodClusterUnderShard: taking the leaf under another lock is fine —
// only acquisitions beneath it are forbidden.
func goodClusterUnderShard(c *ClusterClient, s *Store) {
	s.shards[3].mu.Lock()
	c.mu.Lock()
	c.epoch++
	c.mu.Unlock()
	s.shards[3].mu.Unlock()
}

func suppressed(a, b *Tree) {
	a.mu.Lock()
	//lint:ignore distavet/lockorder golden test: documented rank-ordered double lock
	b.mu.Lock()
	b.mu.Unlock()
	a.mu.Unlock()
}

// RemoteClient mirrors the mux client's outbound half: callers append
// to out under sendMu and one of them writes it with sendMu released.
type RemoteClient struct {
	sendMu   sync.Mutex
	out      []byte
	spare    []byte
	flushing bool
	room     chan struct{}
	conn     interface{ Write([]byte) (int, error) }

	pmu     sync.Mutex
	pending map[uint32]chan []byte
}

// badFlushUnderSendMu writes the buffer without swapping it out first:
// every caller on the connection now waits behind the transport.
func badFlushUnderSendMu(c *RemoteClient, frame []byte) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	c.out = append(c.out, frame...)
	_, err := c.conn.Write(c.out) // want "Write called while RemoteClient.sendMu is held"
	c.out = c.out[:0]
	return err
}

// badLockUnderSendMu reaches into the pending table from inside the
// send critical section; pmu is not a tracked class, the strict leaf
// covers it anyway.
func badLockUnderSendMu(c *RemoteClient, tag uint32) {
	c.sendMu.Lock()
	c.pmu.Lock() // want "pmu acquired while RemoteClient.sendMu is held"
	delete(c.pending, tag)
	c.pmu.Unlock()
	c.sendMu.Unlock()
}

// badChannelUnderSendMu waits for room, signals and selects with the
// mutex held.
func badChannelUnderSendMu(c *RemoteClient, done chan struct{}) {
	c.sendMu.Lock()
	<-c.room             // want "channel receive while RemoteClient.sendMu is held"
	c.room <- struct{}{} // want "channel send while RemoteClient.sendMu is held"
	select {             // want "select while RemoteClient.sendMu is held"
	case <-done:
	default:
	}
	c.sendMu.Unlock()
}

// goodGroupCommit is the documented shape: append under the mutex,
// swap the buffers, write with it released, wake waiters by closing
// (close never blocks) and wait for room only while not holding it.
func goodGroupCommit(c *RemoteClient, frame []byte, done chan struct{}) bool {
	c.sendMu.Lock()
	for c.flushing && len(c.out) >= 1<<16 {
		if c.room == nil {
			c.room = make(chan struct{})
		}
		room := c.room
		c.sendMu.Unlock()
		select {
		case <-room:
		case <-done:
			return false
		}
		c.sendMu.Lock()
	}
	c.out = append(c.out, frame...)
	if c.flushing {
		c.sendMu.Unlock()
		return true
	}
	c.flushing = true
	for {
		buf := c.out
		c.out, c.spare = c.spare[:0], nil
		c.sendMu.Unlock()
		if _, err := c.conn.Write(buf); err != nil {
			return true
		}
		c.sendMu.Lock()
		c.spare = buf[:0]
		if c.room != nil {
			close(c.room)
			c.room = nil
		}
		if len(c.out) == 0 {
			c.flushing = false
			c.sendMu.Unlock()
			return true
		}
	}
}
