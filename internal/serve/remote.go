package serve

import (
	"context"
	"fmt"
	"sync"

	"dpc/internal/jobwire"
	"dpc/internal/metric"
	"dpc/internal/transport"
)

// remoteData is a remote dataset's state: persistent connections to the
// dpc-site daemons holding the data, owned by the server process — never
// journaled (dpc-site redials after a restart), never deleted over the API.
type remoteData struct {
	// jobMu serializes protocol runs and group membership changes: one
	// transport serves one run at a time (connection persistence, not
	// multiplexing).
	jobMu sync.Mutex
	// fleet drives the protocol: the one coordinator group, or a
	// transport.Multi over all of them. groups keeps the individual
	// groups so more can join via AddRemoteGroup; both change under jobMu
	// and the dataset lock together.
	fleet  jobwire.Fleet
	groups []*transport.Coordinator
}

// asRemote returns d's remote state, if d is remote.
func (d *Dataset) asRemote() (*remoteData, bool) {
	rm, ok := d.data.(*remoteData)
	return rm, ok
}

// RegisterRemote registers a remote dataset served by sites connected on
// coord — its first (and possibly only) site group. The server (not the
// HTTP API) owns the connections; the registry serializes jobs over them.
// AddRemoteGroup attaches further groups later.
func (r *Registry) RegisterRemote(name string, coord *transport.Coordinator) (*Dataset, error) {
	if err := validateName(name); err != nil {
		return nil, err
	}
	if coord == nil || coord.Sites() == 0 {
		return nil, fmt.Errorf("serve: remote dataset %q has no sites", name)
	}
	return r.register(name, KindRemote, &remoteData{fleet: coord, groups: []*transport.Coordinator{coord}})
}

// AddRemoteGroup attaches another connected site group to an existing
// remote dataset, so one dataset's jobs fan out over several independent
// site fleets at once. Global site numbering concatenates the groups in
// attachment order; for bit-parity with a single-fleet run of the same
// shards, the daemons' -site ids must be globally unique across groups
// (per-site solver seeds derive from them). The swap takes the job lock,
// so a protocol run in flight finishes on the old group set.
func (r *Registry) AddRemoteGroup(name string, coord *transport.Coordinator) error {
	if coord == nil || coord.Sites() == 0 {
		return fmt.Errorf("serve: remote group for %q has no sites", name)
	}
	d, err := r.Get(name)
	if err != nil {
		return err
	}
	rm, ok := d.asRemote()
	if !ok {
		return fmt.Errorf("serve: dataset %q is %s, not remote", name, d.kind)
	}
	rm.jobMu.Lock()
	defer rm.jobMu.Unlock()
	groups := append(append([]*transport.Coordinator(nil), rm.groups...), coord)
	multi, err := transport.NewMulti(groups...)
	if err != nil {
		return fmt.Errorf("serve: dataset %q: %w", name, err)
	}
	d.mu.Lock()
	rm.groups, rm.fleet = groups, multi
	d.version = r.nextVersion()
	d.mu.Unlock()
	return nil
}

// CloseRemote shuts a remote dataset's site connections (sending every
// site the protocol close, ending its ServeJobs loop). No-op for local
// datasets. Jobs in flight finish first: the close takes the job lock.
func (d *Dataset) CloseRemote() error {
	rm, ok := d.asRemote()
	if !ok {
		return nil
	}
	rm.jobMu.Lock()
	defer rm.jobMu.Unlock()
	return rm.fleet.Close()
}

func (rm *remoteData) info(info *DatasetInfo) {
	info.Sites = rm.fleet.Sites()
	info.Groups = len(rm.groups)
}

func (rm *remoteData) check(name string, _ []metric.Point) error {
	return fmt.Errorf("serve: dataset %q is %s; append its data at the sites", name, KindRemote)
}

func (rm *remoteData) apply([]metric.Point) bool { return false }

func (rm *remoteData) record() (walDataset, bool) { return walDataset{}, false }

// run fans the protocol out to the persistent dpc-site connections: a job
// frame re-arms every site with this job's config, then the standard
// coordinator drive runs over the live sockets. Jobs against one remote
// dataset serialize (the transport round contract); jobs against
// different datasets still run concurrently.
func (rm *remoteData) run(ctx context.Context, _ *Registry, _ *Dataset, _ JobSpec, job jobwire.Job) (*JobResult, error) {
	rm.jobMu.Lock()
	defer rm.jobMu.Unlock()
	res, err := job.RunFleet(ctx, rm.fleet, nil)
	if err != nil {
		// A cancellation mid-protocol leaves the persistent connections
		// desynchronized (site replies for this run are still in flight).
		// Close them so later jobs fail loudly instead of decoding another
		// job's frames.
		if ctx.Err() != nil {
			rm.fleet.Close()
		}
		return nil, err
	}
	return jobResult(job, jobwire.Data{}, res, transport.KindTCP), nil
}

// RegisterRemote accepts `sites` persistent dpc-site connections on a TCP
// listener bound to addr and registers them as a remote dataset. It blocks
// until every site has joined (dpc-site retries dialing, so start order
// does not matter). The welcome blob is the job-frame protocol marker
// (transport.JobsHello) every dpc-site checks for.
func (s *Server) RegisterRemote(name, addr string, sites int) (d *Dataset, bound string, err error) {
	bound, err = acceptRemote(nil, addr, sites, func(coord *transport.Coordinator) error {
		d, err = s.reg.RegisterRemote(name, coord)
		return err
	})
	return d, bound, err
}

// RegisterRemoteListener is RegisterRemote over an already-bound listener
// (tests bind to an ephemeral port first so the sites know where to dial
// before the accept loop starts). The caller owns closing l.
func (s *Server) RegisterRemoteListener(name string, l *transport.Listener, sites int) (d *Dataset, err error) {
	_, err = acceptRemote(l, "", sites, func(coord *transport.Coordinator) error {
		d, err = s.reg.RegisterRemote(name, coord)
		return err
	})
	return d, err
}

// AddRemoteGroup accepts `sites` more persistent dpc-site connections on a
// TCP listener bound to addr and attaches them to the named remote dataset
// as an additional site group, so one dataset's jobs fan out over several
// independent fleets (see Registry.AddRemoteGroup for the site-numbering
// contract). Returns the bound listener address.
func (s *Server) AddRemoteGroup(name, addr string, sites int) (string, error) {
	return acceptRemote(nil, addr, sites, func(coord *transport.Coordinator) error {
		return s.reg.AddRemoteGroup(name, coord)
	})
}

// acceptRemote accepts `sites` dpc-site connections as one group — on l,
// or on a listener bound to addr when l is nil — and hands it to attach,
// closing it if attach refuses. It returns the listener's address.
func acceptRemote(l *transport.Listener, addr string, sites int, attach func(*transport.Coordinator) error) (string, error) {
	if l == nil {
		var err error
		if l, err = transport.Listen(addr, sites); err != nil {
			return "", err
		}
		defer l.Close()
	}
	coord, err := l.Accept(sites, []byte(transport.JobsHello))
	if err != nil {
		return "", err
	}
	if err := attach(coord); err != nil {
		coord.Close()
		return "", err
	}
	return l.Addr().String(), nil
}
