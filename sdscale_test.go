package sdscale_test

import (
	"context"
	"fmt"
	"log"
	"testing"
	"time"

	"github.com/dsrhaslab/sdscale"
)

// TestFacadeFlatControlPlane exercises the public API end to end: stages,
// controller, a cycle, and rule observation — what a downstream user's
// first program does.
func TestFacadeFlatControlPlane(t *testing.T) {
	net := sdscale.NewSimNet(sdscale.SimNetConfig{})
	ctx := context.Background()

	var stages []*sdscale.VirtualStage
	for i := 0; i < 4; i++ {
		st, err := sdscale.StartVirtualStage(sdscale.StageConfig{
			ID:        uint64(i + 1),
			JobID:     uint64(i%2 + 1),
			Weight:    1,
			Generator: sdscale.ConstantWorkload{Rates: sdscale.Rates{1000, 100}},
			Network:   net.Host(fmt.Sprintf("stage-%d", i+1)),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		stages = append(stages, st)
	}

	g, err := sdscale.StartGlobal(sdscale.GlobalConfig{
		Network:   net.Host("controller"),
		Algorithm: sdscale.PSFA(),
		Capacity:  sdscale.Rates{2000, 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for _, st := range stages {
		if err := g.AddStage(ctx, st.Info()); err != nil {
			t.Fatal(err)
		}
	}

	b, err := g.RunCycle(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if b.Total <= 0 {
		t.Error("zero cycle latency")
	}
	for _, st := range stages {
		rule, ok := st.LastRule()
		if !ok {
			t.Fatalf("stage %d unruled", st.Info().ID)
		}
		if rule.Action != sdscale.ActionSetLimit {
			t.Errorf("action = %v", rule.Action)
		}
		if got := rule.Limit[sdscale.ClassData]; got != 500 {
			t.Errorf("limit = %g, want 500", got)
		}
	}
}

// TestFacadeClusterHarness verifies BuildCluster + UsageCollector work from
// the public API, including the experiment network model.
func TestFacadeClusterHarness(t *testing.T) {
	c, err := sdscale.BuildCluster(sdscale.ClusterConfig{
		Topology:    sdscale.Hierarchical,
		Stages:      12,
		Aggregators: 2,
		Net:         sdscale.ExperimentNet(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	uc := sdscale.NewUsageCollector(c)
	uc.Start()
	if _, err := c.Global.RunCycle(context.Background()); err != nil {
		t.Fatal(err)
	}
	global, agg, elapsed := uc.Stop()
	if elapsed <= 0 || global.TxMBps <= 0 || agg.TxMBps <= 0 {
		t.Errorf("usage = global %+v agg %+v over %v", global, agg, elapsed)
	}
}

// TestFacadeAlgorithms verifies the algorithm registry and direct use.
func TestFacadeAlgorithms(t *testing.T) {
	alg, err := sdscale.NewAlgorithm("psfa")
	if err != nil {
		t.Fatal(err)
	}
	allocs := alg.Allocate([]sdscale.JobInput{
		{JobID: 1, Weight: 1, Demand: sdscale.Rates{100, 0}},
	}, sdscale.Rates{50, 0})
	if len(allocs) != 1 || allocs[0].Limit[sdscale.ClassData] != 50 {
		t.Errorf("allocs = %+v", allocs)
	}
	if _, err := sdscale.NewAlgorithm("bogus"); err == nil {
		t.Error("bogus algorithm accepted")
	}
}

// TestFacadeWorkloads verifies generator construction via the façade.
func TestFacadeWorkloads(t *testing.T) {
	if sdscale.StressWorkload().Demand(0).IsZero() {
		t.Error("stress workload idle")
	}
	g, err := sdscale.ParseWorkload("constant:10,1")
	if err != nil {
		t.Fatal(err)
	}
	if g.Demand(time.Hour) != (sdscale.Rates{10, 1}) {
		t.Error("parsed workload wrong")
	}
}

// TestFacadeFileSystem verifies PFS construction via the façade.
func TestFacadeFileSystem(t *testing.T) {
	fs := sdscale.NewFileSystem(sdscale.FileSystemConfig{OSTs: 2, OSTCapacity: 1e6, MDSCapacity: 1e6})
	if _, err := fs.Submit(context.Background(), 1, sdscale.ClassData); err != nil {
		t.Fatal(err)
	}
	if ops := fs.ClientOps(1); ops[sdscale.ClassData] != 1 {
		t.Errorf("client ops = %v", ops)
	}
}

// ExampleBuildCluster demonstrates the one-call deployment harness.
func ExampleBuildCluster() {
	c, err := sdscale.BuildCluster(sdscale.ClusterConfig{
		Topology:    sdscale.Hierarchical,
		Stages:      100,
		Aggregators: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Global.RunCycle(context.Background()); err != nil {
		log.Fatal(err)
	}
	fmt.Println(c.Global.NumStages(), "stages under", c.Global.NumChildren(), "aggregators")
	// Output: 100 stages under 2 aggregators
}
