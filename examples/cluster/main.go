// Command cluster demonstrates the sharded sweep engine
// (internal/cluster): it starts three in-process soprocd replicas,
// points a coordinator engine at them, regenerates every experiment
// through the cluster, and verifies the output is byte-identical to a
// single-node run — with the memo spread across the replicas instead of
// resident in one process. It then runs a fast-tier sweep
// (internal/tier) through the same coordinator and verifies the tier
// split survives forwarding: escalated points route to the replicas
// like any structural point, while surrogate-answered points never
// leave the coordinator.
//
// Run with:
//
//	go run ./examples/cluster
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	"scaleout/internal/cluster"
	"scaleout/internal/exp"
	"scaleout/internal/figures"
	"scaleout/internal/noc"
	"scaleout/internal/serve"
	"scaleout/internal/sim"
	"scaleout/internal/tech"
	"scaleout/internal/tier"
	"scaleout/internal/workload"
)

// replica is one in-process soprocd: its own engine (its shard of the
// memo) behind the serve handler on a loopback port.
type replica struct {
	addr string
	eng  *exp.Engine
}

func startReplica() (replica, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return replica{}, err
	}
	eng := exp.NewBounded(0, 4096)
	go http.Serve(ln, serve.New(eng).Handler())
	return replica{addr: ln.Addr().String(), eng: eng}, nil
}

func renderAll(ctx context.Context) (string, error) {
	tables, err := figures.RunAllContext(ctx)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, t := range tables {
		b.WriteString(t.String())
		b.WriteString("\n")
	}
	return b.String(), nil
}

func main() {
	reps := make([]replica, 3)
	addrs := make([]string, 3)
	for i := range reps {
		r, err := startReplica()
		if err != nil {
			log.Fatal(err)
		}
		reps[i], addrs[i] = r, r.addr
	}
	fmt.Printf("three in-process replicas: %s\n\n", strings.Join(addrs, ", "))

	coord, err := cluster.New(addrs)
	if err != nil {
		log.Fatal(err)
	}
	eng := exp.New(0)
	eng.SetRoute(coord.Route)

	start := time.Now()
	clustered, err := renderAll(exp.WithEngine(context.Background(), eng))
	if err != nil {
		log.Fatal(err)
	}
	clusterTime := time.Since(start)

	start = time.Now()
	local, err := renderAll(exp.WithEngine(context.Background(), exp.New(0)))
	if err != nil {
		log.Fatal(err)
	}
	localTime := time.Since(start)

	if clustered != local {
		log.Fatal("cluster output differs from single-node output")
	}
	fmt.Printf("every experiment regenerated through the cluster: byte-identical to single-node\n")
	fmt.Printf("  cluster %s, single-node %s\n\n", clusterTime.Round(time.Millisecond), localTime.Round(time.Millisecond))

	st := coord.Stats()
	if st.Unroutable != 0 || st.LocalFallbacks != 0 {
		// The wire form carries every valid configuration, so a full
		// regeneration — ch4's WireDelta pods and the extension studies
		// included — must shard completely.
		log.Fatalf("%d points were unroutable and %d fell back locally; every figure point must shard", st.Unroutable, st.LocalFallbacks)
	}
	fmt.Printf("coordinator: %d points routed in %d posts, every point representable on the wire\n",
		st.Routed, st.Posts)
	fmt.Println("memo spread (each replica owns a disjoint shard of the design space):")
	for i, r := range reps {
		es := r.eng.Stats()
		fmt.Printf("  replica %d (%s): %d points computed, %d resident\n", i+1, r.addr, es.Misses, es.MemoSize)
	}

	// Tiered evaluation over the same cluster: calibrate a small grid,
	// then sweep structural configurations at an uncalibrated seed in
	// fast mode. Points in certified regions are answered from the
	// analytic surrogate on the coordinator; only escalated points
	// become routable work.
	cal, err := tier.Calibrate(context.Background(), tier.Options{
		Cores: []int{16}, LLCMB: []float64{2, 4, 8}, Nets: []noc.Kind{noc.Crossbar},
	})
	if err != nil {
		log.Fatal(err)
	}
	ev := tier.New(cal)
	var sweep []sim.StructuralConfig
	for _, w := range workload.Suite() {
		for _, llc := range []float64{2, 4, 8} {
			sweep = append(sweep, sim.StructuralConfig{
				Workload: w, CoreType: tech.OoO, Cores: 16, LLCMB: llc, Seed: 2,
			})
		}
	}
	before := coord.Stats()
	if _, err := ev.Structurals(exp.WithEngine(context.Background(), eng), sweep); err != nil {
		log.Fatal(err)
	}
	ts := ev.Stats()
	delta := coord.Stats().Routed - before.Routed
	fmt.Printf("\ntiered fast sweep through the cluster: %d points scored, %d surrogate-served, %d escalated\n",
		ts.Scored, ts.SurrogateServed, ts.Escalated)
	if ts.Escalated != delta {
		log.Fatalf("escalated %d points but the coordinator routed %d", ts.Escalated, delta)
	}
	fmt.Printf("  all %d escalated points routed to replicas; %d surrogate answers never left the coordinator\n",
		delta, ts.SurrogateServed)
}
