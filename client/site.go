package client

import (
	"time"

	"dpc/internal/jobwire"
	"dpc/internal/transport"
)

// SiteData is the data one cluster site holds across jobs: its point shard
// (for point objectives) and/or its uncertain node shard plus the shared
// ground set (for the u-* objectives). Jobs of a kind the site has no data
// for fail that job loudly.
type SiteData struct {
	// Site is this site's 0-based id, unique across the fleet.
	Site int
	// Points is the site's point shard.
	Points []Point
	// Ground and Nodes are the shared ground set and the site's node shard.
	Ground *Ground
	Nodes  []Node
}

// ServeSite serves one connection's worth of jobs: it dials a cluster
// coordinator (a ClusterListener, or dpc-server -sites-listen) at addr,
// retrying until timeout (0 = one attempt), and serves jobs from d —
// building one long-lived distance cache over the point shard so repeated
// jobs stay warm — until the coordinator closes the connection. It blocks
// for the life of the connection; run it in its own goroutine or process.
func ServeSite(addr string, d SiteData, timeout time.Duration) error {
	sc, err := transport.Dial(addr, d.Site, timeout)
	if err != nil {
		return err
	}
	defer sc.Close()
	return d.serve(sc)
}

// ServeSiteLoop is dpc-site as a library call — ServeSite plus redial
// (transport.Redial): a connection that drops without the coordinator's
// clean protocol close — the fate of a fleet whose request was cancelled
// or failed at a site — is dialed again, so the site is back for the
// coordinator's reconnect. It returns nil on a clean close, or the dial
// error once the coordinator stays away for timeout.
func ServeSiteLoop(addr string, d SiteData, timeout time.Duration) error {
	return transport.Redial(addr, d.Site, timeout, d.serve)
}

// serve runs one connection's job loop over d.
func (d SiteData) serve(sc *transport.Site) error {
	return jobwire.ServeJobs(sc, jobwire.SiteData{
		Site: d.Site, Pts: d.Points, G: d.Ground, Nodes: d.Nodes,
	}, nil)
}
