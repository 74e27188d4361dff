package serve

import (
	"context"
	"fmt"

	"dpc/internal/jobwire"
	"dpc/internal/metric"
	"dpc/internal/transport"
)

// remoteData is a remote dataset's state: the fleet of dpc-site daemons
// holding the data, owned by the server process — never journaled
// (dpc-site redials after a restart), never deleted over the API.
type remoteData struct {
	fleet *jobwire.Fleet
}

// asRemote returns d's remote state, if d is remote.
func (d *Dataset) asRemote() (*remoteData, bool) {
	rm, ok := d.data.(*remoteData)
	return rm, ok
}

// RegisterRemote accepts `sites` persistent dpc-site connections (ids
// [0, sites)) on l and registers them as a remote dataset. It blocks until
// every site has joined (dpc-site retries dialing, so start order does not
// matter) and closes l either way. AddRemoteGroup attaches further groups
// later.
func (s *Server) RegisterRemote(name string, l *transport.Listener, sites int) (*Dataset, error) {
	if err := validateName(name); err != nil {
		l.Close()
		return nil, err
	}
	f, err := jobwire.AcceptFleet(l, sites, sites, 0)
	if err != nil {
		return nil, err
	}
	d, err := s.reg.register(name, KindRemote, &remoteData{fleet: f})
	if err != nil {
		f.Close()
		return nil, err
	}
	return d, nil
}

// AddRemoteGroup accepts `sites` more persistent dpc-site connections on l
// (closing it either way) as a further site group of the named remote
// dataset, so its jobs fan out over several fleets at once. Site ids
// continue across groups: the new daemons dial with -site ids [n, n+sites),
// n the dataset's site count so far, so a run is bit-identical to one fleet
// over the same shards. Jobs keep running on the old groups meanwhile.
func (s *Server) AddRemoteGroup(name string, l *transport.Listener, sites int) error {
	d, err := s.reg.Get(name)
	if err != nil {
		l.Close()
		return err
	}
	rm, ok := d.asRemote()
	if !ok {
		l.Close()
		return fmt.Errorf("serve: dataset %q is %s, not remote", name, d.kind)
	}
	if err := rm.fleet.AddGroup(l, sites); err != nil {
		return fmt.Errorf("serve: dataset %q: %w", name, err)
	}
	d.mu.Lock()
	d.version = s.reg.nextVersion()
	d.mu.Unlock()
	return nil
}

// CloseRemote shuts a remote dataset's site connections (sending every
// site the protocol close, ending its ServeJobs loop). No-op for local
// datasets. Jobs in flight finish first.
func (d *Dataset) CloseRemote() error {
	rm, ok := d.asRemote()
	if !ok {
		return nil
	}
	return rm.fleet.Close()
}

func (rm *remoteData) info(info *DatasetInfo) {
	info.Sites = rm.fleet.Sites()
	info.Groups = rm.fleet.Groups()
}

func (rm *remoteData) check(name string, _ []metric.Point) error {
	return fmt.Errorf("serve: dataset %q is %s; append its data at the sites", name, KindRemote)
}

func (rm *remoteData) apply([]metric.Point) {}

func (rm *remoteData) record() (walDataset, bool) { return walDataset{}, false }

// run fans the protocol out to the persistent dpc-site connections: a job
// frame re-arms every site with this job's config, then the standard
// coordinator drive runs over the live sockets. Jobs against one remote
// dataset serialize (the transport round contract); jobs against
// different datasets still run concurrently. A cancelled job leaves the
// fleet reconnectable (see jobwire.Fleet).
func (rm *remoteData) run(ctx context.Context, _ *Registry, _ *Dataset, _ JobSpec, job jobwire.Job) (*JobResult, error) {
	res, err := rm.fleet.Run(ctx, job, nil)
	if err != nil {
		return nil, err
	}
	return jobResult(job, jobwire.Data{}, res, transport.KindTCP), nil
}
