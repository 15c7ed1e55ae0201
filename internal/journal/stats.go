package journal

import (
	"sync/atomic"
	"time"
)

// Stats is a bundle of plain atomic counters the journal layer bumps as it
// works: appended bytes, fsyncs, checkpoints, and the log records recovery
// scanned and decoded. It exists so the /metrics
// surface can read journal activity without the journal importing the
// telemetry package (the journal stays owner-agnostic) and without any
// callback on the append path — one Stats passed to the owner's
// WriterOptions counts every writer and every journal attached to one,
// giving fleet-wide totals for free.
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
	// ScannedRecords counts log records read by recovery — the boot scan
	// and per-home tail reads — whose frame passed its length and CRC check.
	ScannedRecords atomic.Int64
	// DecodedRecords counts the records among them whose JSON body was
	// decoded: recovery decodes only what it replays (plus records whose
	// home and LSN cannot be read from their prefix).
	DecodedRecords atomic.Int64
}

// noteScanned records one log record read by recovery.
func (s *Stats) noteScanned() {
	if s == nil {
		return
	}
	s.ScannedRecords.Add(1)
}

// noteDecoded records one log record body decoded by recovery.
func (s *Stats) noteDecoded() {
	if s == nil {
		return
	}
	s.DecodedRecords.Add(1)
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
