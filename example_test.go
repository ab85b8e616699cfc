package revelio_test

import (
	"context"
	"fmt"

	"revelio"
)

// ExampleNewFleet_canaryRollout walks the canary firmware rollout
// workflow from OPERATIONS.md at the fleet level: stage a new measured
// image (the new golden is trusted alongside the old, and the endpoint
// snapshot's PriorGolden marks the rollout in progress), add a canary
// node — joins during a staged rollout boot the new firmware — then
// judge the canary bad and abort: canary nodes are removed first, the
// abort revokes the canary measurement, and the fleet re-verifies on
// the restored golden. A gateway over this fleet steers
// traffic by the same snapshot (see revelio/gateway's Routing example
// and examples/canary for the full data-plane loop).
func ExampleNewFleet_canaryRollout() {
	ctx := context.Background()
	f, err := revelio.NewFleet(ctx, revelio.FleetConfig{Nodes: 2})
	if err != nil {
		fmt.Println("fleet:", err)
		return
	}
	defer f.Close()
	before := f.Endpoints().Golden

	newGolden, err := f.StageFirmware(ctx, "2026.08-cvm")
	if err != nil {
		fmt.Println("stage:", err)
		return
	}
	snap := f.Endpoints()
	fmt.Println("rollout staged:", snap.PriorGolden != nil && *snap.PriorGolden == before)
	fmt.Println("golden is canary image:", snap.Golden == newGolden)

	canary, err := f.AddNode(ctx)
	if err != nil {
		fmt.Println("add canary:", err)
		return
	}
	n := 0
	for _, ep := range f.Endpoints().Endpoints {
		if ep.Measurement == newGolden {
			n++
		}
	}
	fmt.Println("canary nodes serving:", n)

	// Unhappy path: the canary misbehaves. Runbook order matters — the
	// fleet must hold no canary-measurement nodes when the abort revokes
	// that measurement, so remove the canary first.
	if err := f.RemoveNode(ctx, canary); err != nil {
		fmt.Println("remove canary:", err)
		return
	}
	if err := f.AbortRollOut(ctx); err != nil {
		fmt.Println("abort:", err)
		return
	}
	if err := f.VerifyFleet(ctx); err != nil {
		fmt.Println("verify:", err)
		return
	}
	after := f.Endpoints()
	fmt.Println("rollout aborted:", after.PriorGolden == nil && after.Golden == before)
	// Output:
	// rollout staged: true
	// golden is canary image: true
	// canary nodes serving: 1
	// rollout aborted: true
}
