// Command dista-micro runs a single micro-benchmark case (Table II) in
// a chosen tracking mode and reports what the check() sink observed —
// the per-case RQ1 soundness/precision demonstration. In dista mode it
// exits non-zero unless the sink saw exactly the two sources' taints.
//
// Usage:
//
//	dista-micro [-case 1] [-mode dista] [-size 10485760] [-list]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"dista/internal/core/tracker"
	"dista/internal/microbench"
)

func main() {
	caseID := flag.Int("case", 1, "Table II case id (1-30)")
	modeStr := flag.String("mode", "dista", "tracking mode: off | phosphor | dista")
	size := flag.Int("size", 10<<20, "payload bytes per side (paper: ~10MB)")
	list := flag.Bool("list", false, "list all cases and exit")
	flag.Parse()

	if err := run(*caseID, *modeStr, *size, *list); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(caseID int, modeStr string, size int, list bool) error {
	if list {
		writeTableII(os.Stdout)
		return nil
	}
	c, ok := microbench.CaseByID(caseID)
	if !ok {
		return fmt.Errorf("dista-micro: no case %d (1-30)", caseID)
	}
	if size < 1 {
		return fmt.Errorf("dista-micro: -size %d: want at least one byte per side", size)
	}
	mode, err := tracker.ParseMode(modeStr)
	if err != nil {
		return err
	}

	fmt.Printf("case %d: %s / %s (mode %s, %d bytes per side)\n", c.ID, c.Group, c.Name, mode, size)
	start := time.Now()
	h, err := microbench.RunCase(c, mode, size)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	tags := h.SinkTags()
	fmt.Printf("elapsed: %v\n", elapsed)
	fmt.Printf("check() observed taints: [%s]\n", strings.Join(tags, ", "))
	d1, w1 := h.Node1.Agent.Traffic()
	d2, w2 := h.Node2.Agent.Traffic()
	if d1+d2 > 0 {
		fmt.Printf("traffic: %d payload bytes, %d wire bytes (%.2fx)\n",
			d1+d2, w1+w2, float64(w1+w2)/float64(d1+d2))
	}
	for _, a := range []*tracker.Agent{h.Node1.Agent, h.Node2.Agent} {
		if err := a.Flush(); err != nil { // the taints streams defined inline
			return err
		}
	}
	fmt.Printf("global taints in Taint Map: %d\n", h.Store.Stats().GlobalTaints)

	if mode != tracker.ModeDista {
		return nil
	}
	if err := verdict(tags); err != nil {
		fmt.Println("RESULT: UNEXPECTED")
		return err
	}
	fmt.Println("RESULT: sound and precise (exactly {Data1, Data2} at the sink)")
	return nil
}

// verdict is the RQ1 check on what a dista run's sink observed: both
// sources' taints and nothing else (sound and precise).
func verdict(tags []string) error {
	if got := strings.Join(tags, ", "); got != "Data1, Data2" {
		return fmt.Errorf("dista-micro: the sink observed [%s], want [Data1, Data2]", got)
	}
	return nil
}

// writeTableII prints the case inventory (Table II).
func writeTableII(w io.Writer) {
	fmt.Fprintf(w, "TABLE II: MICRO BENCHMARK CASES\n")
	fmt.Fprintf(w, "%-4s %-24s %s\n", "ID", "Group", "Case")
	for _, c := range microbench.Cases() {
		fmt.Fprintf(w, "%-4d %-24s %s\n", c.ID, c.Group, c.Name)
	}
	fmt.Fprintf(w, "\nGroups:\n")
	for _, g := range microbench.Groups() {
		fmt.Fprintf(w, "  %-24s %d case(s)\n", g.Name, g.Count)
	}
}
