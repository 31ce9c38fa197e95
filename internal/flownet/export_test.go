package flownet

import "moment/internal/maxflow"

// Bisector exposes a network's horizon solver to the package's external
// tests.
func (n *Network) Bisector() *maxflow.TimeBisector { return n.bis }
