package sim

import (
	"time"
)

// Server is a single FIFO work server: jobs submitted to it execute one at
// a time, in order, each occupying the server for its service duration.
// It models fixed-function processing units (a NIC's DMA engine, an SSD's
// flash channel controller) and keeps a busy-time integral so utilization
// can be reported.
type Server struct {
	eng      *Engine
	name     string
	nextFree Time
	busy     time.Duration
	jobs     uint64
}

// NewServer returns a FIFO server.
func NewServer(e *Engine, name string) *Server {
	return &Server{eng: e, name: name}
}

// Name returns the server's name.
func (s *Server) Name() string { return s.name }

// Submit enqueues a job of the given service time and schedules done (may
// be nil) at its completion. It returns the completion time.
func (s *Server) Submit(service time.Duration, done func()) Time {
	if service < 0 {
		service = 0
	}
	now := s.eng.Now()
	start := now
	if s.nextFree > start {
		start = s.nextFree
	}
	finish := start.Add(service)
	s.nextFree = finish
	s.busy += service
	s.jobs++
	if done == nil {
		done = func() {}
	}
	s.eng.At(finish, done)
	return finish
}

// SubmitProc enqueues a job and blocks the calling process until it
// completes.
func (s *Server) SubmitProc(p *Proc, service time.Duration) {
	s.Submit(service, p.resumeFn)
	p.yield()
}

// BusyTime returns the total service time accumulated.
func (s *Server) BusyTime() time.Duration { return s.busy }

// Jobs returns the number of jobs submitted.
func (s *Server) Jobs() uint64 { return s.jobs }

// Backlog returns how far in the future the server is booked.
func (s *Server) Backlog() time.Duration {
	now := s.eng.Now()
	if s.nextFree <= now {
		return 0
	}
	return s.nextFree.Sub(now)
}

// ResetStats zeroes the busy-time integral and job count.
func (s *Server) ResetStats() {
	s.busy = 0
	s.jobs = 0
}
