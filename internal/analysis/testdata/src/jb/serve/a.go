// JournalBefore fixtures: a serve function that both journals and mutates
// registry state must land the record first.
package serve

import "journal"

type Registry struct{}

func (r *Registry) Get(name string) error           { return nil }
func (r *Registry) Delete(name string) error        { return nil }
func (r *Registry) RegisterTable(name string) error { return nil }
func (r *Registry) put(name string) error           { return nil }
func (r *Registry) AppendJournaled(name string, hook func() error) error {
	return hook()
}

type Server struct {
	reg *Registry
	jnl *journal.Log
}

func (s *Server) journalAppend(kind int, payload any) error {
	return s.jnl.Append(kind, payload)
}

func (s *Server) deleteThenJournal(name string) error {
	if err := s.reg.Delete(name); err != nil { // want "registry mutation Delete precedes deleteThenJournal's first journal append"
		return err
	}
	return s.journalAppend(3, name)
}

func (s *Server) journalThenDelete(name string) error {
	if err := s.journalAppend(3, name); err != nil {
		return err
	}
	return s.reg.Delete(name)
}

// The AppendJournaled hook pattern IS journal-before-apply.
func (s *Server) hookedAppend(name string) error {
	return s.reg.AppendJournaled(name, func() error {
		return s.journalAppend(2, name)
	})
}

// A function that never journals is out of scope for ordering.
func (s *Server) mutateOnly(name string) error {
	return s.reg.RegisterTable(name)
}

// Reads before journaling are fine; only mutations are ordered.
func (s *Server) readThenJournal(name string) error {
	if err := s.reg.Get(name); err != nil {
		return err
	}
	return s.journalAppend(3, name)
}

// Registering from a journal record is a mutation like any other.
func (s *Server) putThenJournal(name string) error {
	if err := s.reg.put(name); err != nil { // want "registry mutation put precedes putThenJournal's first journal append"
		return err
	}
	return s.journalAppend(1, name)
}

// The create handler's shape: register, then hand the journaling and the
// rollback to a helper. The function that registers never journals, and
// the helper journals before it rolls back.
func (s *Server) createThenFinish(name string) error {
	if err := s.reg.put(name); err != nil {
		return err
	}
	return s.finishCreate(name)
}

func (s *Server) finishCreate(name string) error {
	if err := s.journalAppend(1, name); err != nil {
		return s.reg.Delete(name)
	}
	return nil
}

// Raw journal.Log appends count as journal events too.
func (s *Server) rawLogDelete(name string) error {
	if err := s.reg.Delete(name); err != nil { // want "registry mutation Delete precedes rawLogDelete's first journal append"
		return err
	}
	return s.jnl.Append(3, name)
}

// A deliberate mutate-then-journal (rollback-style) site carries a reason.
func (s *Server) annotatedRollback(name string) error {
	//dpc:vet-ok journalbefore fixture: rollback path journals the undo record after applying
	if err := s.reg.RegisterTable(name); err != nil {
		return err
	}
	return s.journalAppend(1, name)
}
