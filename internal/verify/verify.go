// Package verify is the correctness-certification subsystem for Moment's
// planner core. The headline numbers of the paper rest on the planner being
// right: the time-bisection max-flow score (§3.2) decides the recommended
// hardware placement, and the DDAK layout (§3.3) realizes the per-bin
// traffic that flow solution promised. A silently wrong flow or an
// over-capacity bin invalidates every downstream figure, so this package
// provides machine-checkable certificates for each stage:
//
//   - CheckFlow / CheckDecompose certify a solved maxflow.Graph: per-node
//     conservation, capacity respect under Eps semantics, and the
//     max-flow = min-cut duality certificate.
//   - CheckNetwork, CheckAssignment, CheckItemAssignment, CheckSearchResult,
//     and CheckSearchDeterminism audit the planner-facing invariants of
//     flownet, ddak, and placement.
//
// Enable installs the audits as self-check hooks inside flownet.Solve,
// placement.Search, and ddak.Place/PlaceItems, so every planner run
// certifies its own output (momentopt -verify). The hooked packages declare
// plain function variables rather than importing this package, keeping the
// dependency arrow pointing one way.
package verify

import (
	"sync"

	"moment/internal/ddak"
	"moment/internal/flownet"
	"moment/internal/placement"
)

var (
	mu      sync.Mutex
	enabled bool
)

// Enable turns on planner self-verification: every subsequent
// flownet.Solve, placement.Search, ddak.Place, and ddak.PlaceItems audits
// its result and fails loudly instead of returning a silently wrong plan.
// Safe to call more than once.
func Enable() {
	mu.Lock()
	defer mu.Unlock()
	if enabled {
		return
	}
	enabled = true
	flownet.Check = CheckNetwork
	placement.Check = CheckSearchResult
	ddak.Check = CheckAssignment
	ddak.CheckItems = CheckItemAssignment
}

// Disable removes the self-check hooks installed by Enable.
func Disable() {
	mu.Lock()
	defer mu.Unlock()
	if !enabled {
		return
	}
	enabled = false
	flownet.Check = nil
	placement.Check = nil
	ddak.Check = nil
	ddak.CheckItems = nil
}

// Enabled reports whether self-verification is currently installed.
func Enabled() bool {
	mu.Lock()
	defer mu.Unlock()
	return enabled
}
