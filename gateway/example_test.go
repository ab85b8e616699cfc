package gateway_test

import (
	"fmt"

	"revelio/gateway"
)

// ExampleRouting builds the routing policy from OPERATIONS.md: a path
// class pinned to high-TCB nodes, a zone-pinned class, and canary
// routing for staged firmware rollouts. The
// policy plugs into gateway.Config.Routing; its zero value routes
// exactly like the pre-policy gateway.
func ExampleRouting() {
	routing := gateway.Routing{
		// Hard rules: first PathPrefix match wins, and a request whose
		// matching rule leaves no serving endpoint is refused with 503
		// (gateway.ErrNoPolicyUpstreams) — never routed out of policy.
		Rules: []gateway.RouteRule{
			{
				Name:       "payments",
				PathPrefix: "/payments",
				MinTCB:     8,
			},
			{
				Name:       "eu-residency",
				PathPrefix: "/eu",
				Localities: []string{"eu-west"},
			},
		},
		// During a StageFirmware rollout, steer 25% of eligible traffic
		// to nodes on the new golden measurement; roll back — hard, until
		// the rollout commits or aborts — at a 50% failure rate over at
		// least 20 canary requests.
		Canary: gateway.CanaryConfig{
			Weight:         25,
			MaxFailureRate: 0.5,
			MinSamples:     20,
		},
	}

	for _, r := range routing.Rules {
		fmt.Printf("rule %s: prefix %q\n", r.Name, r.PathPrefix)
	}
	fmt.Printf("canary weight: %d%%\n", routing.Canary.Weight)
	// Output:
	// rule payments: prefix "/payments"
	// rule eu-residency: prefix "/eu"
	// canary weight: 25%
}
