package journal

import (
	"sync/atomic"
	"time"
)

// Stats is a bundle of plain atomic counters the journal layer bumps as it
// works: appended bytes, fsyncs, checkpoints. It exists so the /metrics
// surface can read journal activity without the journal importing the
// telemetry package (the journal stays owner-agnostic) and without any
// callback on the append path — one shared Stats is typically passed to
// every home's Options and to the shard GroupWriters' WriterOptions, giving
// fleet-wide totals for free.
//
// All fields are safe for concurrent use; nil *Stats disables recording.
type Stats struct {
	// AppendedBytes counts framed batch bytes appended, across every tier.
	AppendedBytes atomic.Int64
	// Appends counts Batch records appended.
	Appends atomic.Int64
	// Fsyncs counts data fsyncs: the writers' sync cycles.
	Fsyncs atomic.Int64
	// Checkpoints counts checkpoint images durably published.
	Checkpoints atomic.Int64
	// LastCheckpointUnixNano is the wall-clock time of the most recent
	// checkpoint (0 until one lands) — the scrape side derives checkpoint
	// age from it.
	LastCheckpointUnixNano atomic.Int64
}

// noteAppend records one appended batch frame of n bytes.
func (s *Stats) noteAppend(n int64) {
	if s == nil {
		return
	}
	s.Appends.Add(1)
	s.AppendedBytes.Add(n)
}

// noteFsync records one data fsync.
func (s *Stats) noteFsync() {
	if s == nil {
		return
	}
	s.Fsyncs.Add(1)
}

// noteCheckpoint records one published checkpoint image.
func (s *Stats) noteCheckpoint() {
	if s == nil {
		return
	}
	s.Checkpoints.Add(1)
	s.LastCheckpointUnixNano.Store(time.Now().UnixNano())
}
