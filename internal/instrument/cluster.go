package instrument

import (
	"io"

	"dista/internal/core/taint"
	"dista/internal/core/tracker"
	"dista/internal/taintmap"
)

// DialTaintMap turns the agent-args Taint Map spec into a connected
// client for tracker.WithTaintMap — the launch-script path from a
// `taintmap=...` value to the handle the endpoints register through.
// One address is a cluster of one; a ';'-separated list names members of
// a partitioned cluster, and the client bootstraps its ring from the
// first member that answers (the list only has to reach the cluster, not
// describe its partition layout). dial opens one connection to an
// address and is retained for reconnects.
func DialTaintMap(args tracker.AgentArgs, tree *taint.Tree, dial func(addr string) (io.ReadWriteCloser, error), opt taintmap.ClusterOptions) (taintmap.Client, error) {
	addrs := args.TaintMapAddrs()
	if len(addrs) == 0 {
		return nil, ErrNoTaintMap
	}
	if opt.OpTimeout == 0 && args.Deadline > 0 {
		// The agent-args deadline rides down into the cluster client as
		// the whole-operation bound on every lookup; an explicit option
		// wins.
		opt.OpTimeout = args.Deadline
	}
	return taintmap.DialClusterAddrs(addrs, dial, tree, opt)
}
