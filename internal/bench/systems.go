package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dista/internal/core/taint"
	"dista/internal/core/tracker"
	"dista/internal/dlog"
	"dista/internal/jre"
	"dista/internal/netsim"
	"dista/internal/systems/activemq"
	"dista/internal/systems/hbase"
	"dista/internal/systems/mapreduce"
	"dista/internal/systems/rocketmq"
	"dista/internal/systems/zk"
	"dista/internal/taintmap"
)

// SourceDataFile is the generic SIM data-file source the workload
// drivers use when a payload is read from disk ("these files can be
// configuration files or data files", §V-B).
const SourceDataFile = "DataFile#read"

// SystemConfig scales the real-system workloads.
type SystemConfig struct {
	MsgSize   int   // payload bytes for messaging workloads
	Messages  int   // messages / rows / repetitions
	PiSamples int64 // Monte-Carlo samples per MapReduce job
	Jobs      int   // MapReduce job count
}

// DefaultSystemConfig is the scale the repository benchmark's
// paper_tables workload runs every system at, each run one operation.
func DefaultSystemConfig() SystemConfig {
	return SystemConfig{MsgSize: 32 << 10, Messages: 30, PiSamples: 100_000, Jobs: 3}
}

// SystemRun measures one system workload in one mode and scenario.
type SystemRun func(mode tracker.Mode, sc Scenario, cfg SystemConfig, workDir string) (RunStats, error)

// System pairs a Table III row with its workload driver.
type System struct {
	Name     string
	Workload string // the Table III workload description
	Run      SystemRun
}

// Systems returns the five Table III subjects in order.
func Systems() []System {
	return []System{
		{Name: "ZooKeeper", Workload: "leader election", Run: runZooKeeper},
		{Name: "MapReduce/Yarn", Workload: "job to calculate Pi", Run: runMapReduce},
		{Name: "ActiveMQ", Workload: "long text message distribution", Run: runActiveMQ},
		{Name: "RocketMQ", Workload: "long text message distribution", Run: runRocketMQ},
		{Name: "HBase+ZooKeeper", Workload: "get data from a table", Run: runHBase},
	}
}

// cluster builds the per-run environment set.
type cluster struct {
	net   *netsim.Network
	store *taintmap.Store
	mode  tracker.Mode
	spec  tracker.Spec
}

func newCluster(mode tracker.Mode, sc Scenario, simSources []string) *cluster {
	c := &cluster{net: netsim.New(), store: taintmap.NewStore(), mode: mode}
	if sc == SIM {
		// A SIM run restricts sources to the configured file reads and
		// sinks to LOG.info (§V-B).
		c.spec = tracker.NewSpec(simSources, []string{dlog.SinkDesc})
	}
	return c
}

func (c *cluster) env(name string) *jre.Env {
	a := tracker.New(name, c.mode,
		tracker.WithTaintMap(taintmap.NewLocalClient(c.store, taint.NewTree())),
		tracker.WithSpec(c.spec))
	return jre.NewEnv(c.net, a)
}

// stats assembles RunStats from the run duration and the cluster state,
// envs being every node of the run: each registers the fresh taints its
// streams still hold (tracker.Agent.Flush) before the Taint Map's taints
// are counted.
func (c *cluster) stats(d time.Duration, envs ...*jre.Env) (RunStats, error) {
	for _, e := range envs {
		if err := e.Agent.Flush(); err != nil {
			return RunStats{}, fmt.Errorf("bench: %s: registering deferred taints: %w", e.Agent.Node(), err)
		}
	}
	st := RunStats{Duration: d, GlobalTaints: c.store.Stats().GlobalTaints}
	for _, e := range envs {
		if m, ok := e.Agent.TaintMap().(interface{ MemoStats() taintmap.MemoStats }); ok {
			st.Memos = append(st.Memos, m.MemoStats())
		}
		data, wire := e.Agent.Traffic()
		st.DataBytes += data
		st.WireBytes += wire
	}
	return st, nil
}

// writeDataFiles creates n payload files of the given size and returns
// their paths.
func writeDataFiles(dir string, n, size int) ([]string, error) {
	paths := make([]string, n)
	for i := range paths {
		body := strings.Repeat(fmt.Sprintf("data-%03d ", i), size/9+1)[:size]
		paths[i] = filepath.Join(dir, fmt.Sprintf("data-%03d.txt", i))
		if err := os.WriteFile(paths[i], []byte(body), 0o644); err != nil {
			return nil, err
		}
	}
	return paths, nil
}

// runZooKeeper measures the leader-election workload.
func runZooKeeper(mode tracker.Mode, sc Scenario, cfg SystemConfig, workDir string) (RunStats, error) {
	c := newCluster(mode, sc, []string{zk.SourceTxnRead, zk.SourceConfig})
	peers := make([]*zk.Peer, 3)
	for i := range peers {
		env := c.env(fmt.Sprintf("zk%d", i+1))
		dir := ""
		confPath := ""
		if sc == SIM {
			dir = filepath.Join(workDir, fmt.Sprintf("zk%d", i+1))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return RunStats{}, err
			}
			base := int64(i+1) * 100
			if err := zk.WriteTxnLogs(dir, base+1, base+2, base+3); err != nil {
				return RunStats{}, err
			}
			confPath = filepath.Join(dir, "zoo.cfg")
			if err := os.WriteFile(confPath, []byte(fmt.Sprintf("server.%d=zk%d", i+1, i+1)), 0o644); err != nil {
				return RunStats{}, err
			}
		}
		peers[i] = zk.NewPeer(int64(i+1), env, dir)
		peers[i].ConfigPath = confPath
	}
	start := time.Now()
	// The paper runs several election rounds' worth of traffic; repeat
	// the election to give the measurement substance.
	rounds := cfg.Messages / 10
	if rounds < 1 {
		rounds = 1
	}
	for r := 0; r < rounds; r++ {
		roundPeers := peers
		if r > 0 {
			roundPeers = make([]*zk.Peer, len(peers))
			for i, p := range peers {
				roundPeers[i] = zk.NewPeer(p.ID, p.Env, p.DataDir)
				roundPeers[i].ConfigPath = p.ConfigPath
			}
		}
		if err := zk.RunElection(fmt.Sprintf("bench%d", r), roundPeers); err != nil {
			return RunStats{}, err
		}
	}
	envs := make([]*jre.Env, len(peers))
	for i, p := range peers {
		envs[i] = p.Env
	}
	return c.stats(time.Since(start), envs...)
}

// runMapReduce measures the Pi-job workload.
func runMapReduce(mode tracker.Mode, sc Scenario, cfg SystemConfig, workDir string) (RunStats, error) {
	c := newCluster(mode, sc, []string{mapreduce.SourceJobConf})
	rmEnv, nmEnv, ctEnv, clEnv := c.env("rm"), c.env("nm"), c.env("container"), c.env("client")
	mr, err := mapreduce.Start("bench", rmEnv, nmEnv, ctEnv)
	if err != nil {
		return RunStats{}, err
	}
	defer mr.Stop()
	client := mapreduce.NewClient(clEnv, mr.RMAddr())

	confs := make([]string, cfg.Jobs)
	for i := range confs {
		confs[i] = filepath.Join(workDir, fmt.Sprintf("job%d.conf", i))
		if err := os.WriteFile(confs[i], []byte(fmt.Sprintf("queue-%d", i)), 0o644); err != nil {
			return RunStats{}, err
		}
	}

	start := time.Now()
	for i := 0; i < cfg.Jobs; i++ {
		queue := taint.String{Value: "default"}
		if sc == SIM {
			if queue, err = client.LoadJobConf(confs[i]); err != nil {
				return RunStats{}, err
			}
		}
		appID, err := client.SubmitPiJob(queue, cfg.PiSamples)
		if err != nil {
			return RunStats{}, err
		}
		if _, err := client.GetApplicationReport(appID); err != nil {
			return RunStats{}, err
		}
	}
	return c.stats(time.Since(start), rmEnv, nmEnv, ctEnv, clEnv)
}

// runActiveMQ measures long-text distribution across the broker chain.
func runActiveMQ(mode tracker.Mode, sc Scenario, cfg SystemConfig, workDir string) (RunStats, error) {
	c := newCluster(mode, sc, []string{activemq.SourceCredentials, SourceDataFile})
	envs := [3]*jre.Env{c.env("broker1"), c.env("broker2"), c.env("broker3")}
	brokers, err := activemq.StartBrokerChain("bench", envs)
	if err != nil {
		return RunStats{}, err
	}
	defer func() {
		for _, b := range brokers {
			b.Close()
		}
	}()
	prodEnv, consEnv := c.env("producer"), c.env("consumer")

	consumer, err := activemq.ConnectConsumer(consEnv, brokers[2].Addr(), "bench")
	if err != nil {
		return RunStats{}, err
	}
	defer consumer.Close()

	user := taint.String{Value: "bench-user"}
	var files []string
	if sc == SIM {
		if user, err = activemq.LoadCredentials(prodEnv, filepath.Join(workDir, "credentials")); err != nil {
			if err := os.WriteFile(filepath.Join(workDir, "credentials"), []byte("bench-user"), 0o644); err != nil {
				return RunStats{}, err
			}
			if user, err = activemq.LoadCredentials(prodEnv, filepath.Join(workDir, "credentials")); err != nil {
				return RunStats{}, err
			}
		}
		if files, err = writeDataFiles(workDir, cfg.Messages, cfg.MsgSize); err != nil {
			return RunStats{}, err
		}
	}
	producer, err := activemq.ConnectProducer(prodEnv, brokers[0].Addr(), user)
	if err != nil {
		return RunStats{}, err
	}
	defer producer.Close()

	consLog := dlog.New(consEnv.Agent)
	body := strings.Repeat("x", cfg.MsgSize)

	start := time.Now()
	for i := 0; i < cfg.Messages; i++ {
		text := body
		if sc == SIM {
			raw, err := jre.ReadFileTainted(prodEnv, files[i], SourceDataFile, "data")
			if err != nil {
				return RunStats{}, err
			}
			// The published text derives from the file content.
			publishSIM(producer, prodEnv, "bench", raw)
			msg, err := consumer.Receive()
			if err != nil {
				return RunStats{}, err
			}
			consLog.Info("received message %d: %s", i, msg.Body)
			continue
		}
		if _, err := producer.PublishText("bench", text); err != nil {
			return RunStats{}, err
		}
		msg, err := consumer.Receive()
		if err != nil {
			return RunStats{}, err
		}
		consLog.Info("received message %d of %d bytes", i, len(msg.Body.Value))
	}
	return c.stats(time.Since(start), envs[0], envs[1], envs[2], prodEnv, consEnv)
}

// publishSIM publishes a file-derived tainted body (bypassing the SDT
// source point, which a SIM spec leaves dormant anyway).
func publishSIM(p *activemq.Producer, env *jre.Env, topic string, raw taint.Bytes) {
	_, _ = p.PublishTainted(topic, taint.StringOf(raw))
}

// runRocketMQ measures send/pull through the broker.
func runRocketMQ(mode tracker.Mode, sc Scenario, cfg SystemConfig, workDir string) (RunStats, error) {
	c := newCluster(mode, sc, []string{rocketmq.SourceBrokerConf, SourceDataFile})
	brokerEnv, prodEnv, consEnv := c.env("broker"), c.env("producer"), c.env("consumer")

	confPath := ""
	var files []string
	var err error
	if sc == SIM {
		confPath = filepath.Join(workDir, "broker.conf")
		if err := os.WriteFile(confPath, []byte("bench-broker"), 0o644); err != nil {
			return RunStats{}, err
		}
		if files, err = writeDataFiles(workDir, cfg.Messages, cfg.MsgSize); err != nil {
			return RunStats{}, err
		}
	}
	broker, err := rocketmq.StartBroker(brokerEnv, "rmq-bench:10911", confPath, filepath.Join(workDir, "commitlog"))
	if err != nil {
		return RunStats{}, err
	}
	defer broker.Close()

	producer, err := rocketmq.ConnectProducer(prodEnv, "rmq-bench:10911")
	if err != nil {
		return RunStats{}, err
	}
	defer producer.Close()
	consumer, err := rocketmq.ConnectConsumer(consEnv, "rmq-bench:10911")
	if err != nil {
		return RunStats{}, err
	}
	defer consumer.Close()

	body := strings.Repeat("y", cfg.MsgSize)
	start := time.Now()
	for i := 0; i < cfg.Messages; i++ {
		if sc == SIM {
			raw, err := jre.ReadFileTainted(prodEnv, files[i], SourceDataFile, "data")
			if err != nil {
				return RunStats{}, err
			}
			if _, err := producer.SendTainted("bench", taint.StringOf(raw)); err != nil {
				return RunStats{}, err
			}
		} else if _, err := producer.Send("bench", body); err != nil {
			return RunStats{}, err
		}
		if _, err := consumer.Pull("bench", int64(i), 1); err != nil {
			return RunStats{}, err
		}
	}
	return c.stats(time.Since(start), brokerEnv, prodEnv, consEnv)
}

// runHBase measures table reads through the HBase+ZooKeeper pair.
func runHBase(mode tracker.Mode, sc Scenario, cfg SystemConfig, workDir string) (RunStats, error) {
	c := newCluster(mode, sc, []string{hbase.SourceRSConf, SourceDataFile})
	zkEnv, masterEnv := c.env("zknode"), c.env("hmaster")
	rsEnvs := []*jre.Env{c.env("rs1"), c.env("rs2")}
	clientEnv := c.env("client")

	var confs []string
	var files []string
	var err error
	if sc == SIM {
		for i := 1; i <= 2; i++ {
			path := filepath.Join(workDir, fmt.Sprintf("rs%d.conf", i))
			if err := os.WriteFile(path, []byte(fmt.Sprintf("rs-host-%d", i)), 0o644); err != nil {
				return RunStats{}, err
			}
			confs = append(confs, path)
		}
		if files, err = writeDataFiles(workDir, cfg.Messages, 256); err != nil {
			return RunStats{}, err
		}
	}
	hc, err := hbase.StartCluster("bench", zkEnv, masterEnv, rsEnvs, confs, []string{"users", "events"})
	if err != nil {
		return RunStats{}, err
	}
	defer hc.Stop()

	client, err := hbase.NewClient(clientEnv, hc.ZKAddr)
	if err != nil {
		return RunStats{}, err
	}
	defer client.Close()

	start := time.Now()
	for i := 0; i < cfg.Messages; i++ {
		table := client.TableName([]string{"users", "events"}[i%2])
		row := fmt.Sprintf("row%d", i)
		val := strings.Repeat("v", 256)
		if sc == SIM {
			raw, err := jre.ReadFileTainted(clientEnv, files[i], SourceDataFile, "data")
			if err != nil {
				return RunStats{}, err
			}
			if err := client.PutTainted(table, row, "col", taint.StringOf(raw)); err != nil {
				return RunStats{}, err
			}
		} else if err := client.Put(table, row, "col", val); err != nil {
			return RunStats{}, err
		}
		if _, err := client.Get(table, row); err != nil {
			return RunStats{}, err
		}
	}
	allEnvs := append([]*jre.Env{zkEnv, masterEnv, clientEnv}, rsEnvs...)
	return c.stats(time.Since(start), allEnvs...)
}
