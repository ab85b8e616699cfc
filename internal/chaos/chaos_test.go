package chaos

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var (
	chaosSeed = flag.Int64("chaos.seed", 0,
		"replay exactly one chaos seed (0 = run the default seed range)")
	chaosSeeds = flag.Int("chaos.seeds", 2,
		"number of sequential seeds TestChaosSeeds runs (starting at 1)")
	chaosRounds = flag.String("chaos.rounds", "small",
		"profile: small (2 nodes, 8 events), gray (3 nodes, graceful-degradation faults), routed (3 nodes, context-aware routing faults), or nightly (4 nodes, 24 events, rollout faults)")
	chaosOut = flag.String("chaos.out", "",
		"write every executed schedule of TestChaosSeeds, in seed order, to this file")
)

// profiles maps each -chaos.rounds name to its run shape; a run's Config
// is its profile plus a seed.
var profiles = map[string]Config{
	"small":   {Nodes: 2, Events: 8, Clients: 4},
	"gray":    {Nodes: 3, Events: 8, Clients: 4, Gray: true},
	"routed":  {Nodes: 3, Events: 8, Clients: 4, Routed: true},
	"nightly": {Nodes: 4, Events: 24, Clients: 8, Heavy: true},
}

// TestScheduleDeterministic: the same config generates the same
// schedule byte for byte — the replay contract — and distinct seeds
// diverge.
func TestScheduleDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, Nodes: 3, Events: 20, Heavy: true}
	a, b := Generate(cfg), Generate(cfg)
	if a.String() != b.String() {
		t.Fatalf("same seed generated different schedules:\n%s\nvs\n%s", a, b)
	}
	cfg.Seed = 43
	if c := Generate(cfg); c.String() == a.String() {
		t.Error("seeds 42 and 43 generated identical schedules")
	}
}

// TestScheduleGrayGated: the graceful-degradation ops are mixed in only
// when Gray is set — a non-gray config never schedules them (so every
// pre-existing seed replays byte for byte), and gray configs do reach
// them across a small seed range.
func TestScheduleGrayGated(t *testing.T) {
	grayOps := map[Op]bool{OpGrayFailure: true, OpOverloadStorm: true, OpSlowDrip: true}
	sawGray := false
	for seed := int64(1); seed <= 20; seed++ {
		plain := Config{Seed: seed, Nodes: 3, Events: 20, Heavy: true}
		for _, ev := range Generate(plain).Events {
			if grayOps[ev.Op] {
				t.Fatalf("seed %d: non-gray schedule contains %s", seed, ev.Op)
			}
		}
		gray := plain
		gray.Gray = true
		for _, ev := range Generate(gray).Events {
			if grayOps[ev.Op] {
				sawGray = true
			}
		}
	}
	if !sawGray {
		t.Error("no gray op scheduled across 20 gray seeds")
	}
}

// TestScheduleRoutedGated: the routing ops are mixed in only when
// Routed is set — same replay-compatibility contract as the gray
// gating — and routed configs do reach them across a small seed range.
func TestScheduleRoutedGated(t *testing.T) {
	routedOps := map[Op]bool{OpCanaryRollout: true, OpZoneBurst: true}
	sawRouted := false
	for seed := int64(1); seed <= 20; seed++ {
		plain := Config{Seed: seed, Nodes: 3, Events: 20, Heavy: true, Gray: true}
		for _, ev := range Generate(plain).Events {
			if routedOps[ev.Op] {
				t.Fatalf("seed %d: non-routed schedule contains %s", seed, ev.Op)
			}
		}
		routed := plain
		routed.Routed = true
		for _, ev := range Generate(routed).Events {
			if routedOps[ev.Op] {
				sawRouted = true
			}
		}
	}
	if !sawRouted {
		t.Error("no routed op scheduled across 20 routed seeds")
	}
}

// TestScheduleMembershipStaysLegal: over many seeds, the generator's
// size model never schedules a remove below two nodes or an add beyond
// the cap.
func TestScheduleMembershipStaysLegal(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		cfg := Config{Seed: seed, Nodes: 2, Events: 30, Heavy: true}
		size, maxSize := 2, 4
		for _, ev := range Generate(cfg).Events {
			switch ev.Op {
			case OpAddNode:
				size++
			case OpRemoveNode:
				size--
			}
			if size < 2 || size > maxSize {
				t.Fatalf("seed %d: size %d outside [2,%d] at event %d", seed, size, maxSize, ev.Step)
			}
		}
	}
}

// TestScheduleGolden: seeds 1–20 of each CI sweep profile generate
// exactly the schedules committed under testdata/ — the sweeps'
// -chaos.out files — so a generator change that would break replay of an
// old failure shows up here, without standing up a fleet.
func TestScheduleGolden(t *testing.T) {
	for _, name := range []string{"small", "gray", "routed"} {
		want, err := os.ReadFile(filepath.Join("testdata", name+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		var got strings.Builder
		for seed := int64(1); seed <= 20; seed++ {
			cfg := profiles[name]
			cfg.Seed = seed
			got.WriteString(Generate(cfg).String())
		}
		if got.String() != string(want) {
			t.Errorf("%s: seeds 1-20 no longer generate testdata/%s.txt:\n%s", name, name, got.String())
		}
	}
}

// TestChaosSeeds runs the scheduler end to end against a live fleet and
// gateway: one seed when -chaos.seed is set (exact replay), otherwise
// seeds 1..-chaos.seeds, all under the -chaos.rounds profile. A failing
// seed fails its subtest with the violated invariant, the full schedule
// and the command that replays it; the test ends with the list of
// failed seeds. -chaos.out writes every seed's schedule, failed or not.
func TestChaosSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos runs stand up live fleets; skipped in -short")
	}
	profile, ok := profiles[*chaosRounds]
	if !ok {
		t.Fatalf("unknown -chaos.rounds profile %q", *chaosRounds)
	}
	var seeds []int64
	if *chaosSeed != 0 {
		seeds = append(seeds, *chaosSeed)
	} else {
		if *chaosSeeds < 1 {
			t.Fatalf("-chaos.seeds=%d runs no seed", *chaosSeeds)
		}
		for s := int64(1); s <= int64(*chaosSeeds); s++ {
			seeds = append(seeds, s)
		}
	}
	var schedules strings.Builder
	var failed []int64
	for _, seed := range seeds {
		passed := t.Run("seed-"+strconv.FormatInt(seed, 10), func(t *testing.T) {
			cfg := profile
			cfg.Seed, cfg.Log = seed, t.Logf
			res, err := Run(context.Background(), cfg)
			schedules.WriteString(res.Schedule)
			if err != nil {
				t.Fatalf("%v\nreplay: go test ./internal/chaos -run '^TestChaosSeeds$' -chaos.rounds=%s -chaos.seed=%d",
					err, *chaosRounds, seed)
			}
			t.Logf("seed %d: %d events, %d requests (%d windowed failures, %d shed), %d flushes, %d breaker opens, goroutine delta %d",
				res.Seed, res.Events, res.Requests, res.WindowedFailures, res.Shedded,
				res.PolicyFlushes, res.BreakerOpens, res.GoroutineDelta)
			if res.Requests == 0 {
				t.Error("traffic drove no requests through the gateway")
			}
			if res.Violations != 0 {
				t.Errorf("%d violations reported without an error", res.Violations)
			}
		})
		if !passed {
			failed = append(failed, seed)
		}
	}
	if *chaosOut != "" {
		if err := os.WriteFile(*chaosOut, []byte(schedules.String()), 0o644); err != nil {
			t.Errorf("write schedules: %v", err)
		}
	}
	if len(failed) > 0 {
		t.Errorf("%d of %d seeds FAILED: %v", len(failed), len(seeds), failed)
	}
}
