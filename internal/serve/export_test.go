package serve

import (
	"net/http"

	"reqsched/internal/core"
)

// MaxLineBytes exposes the ingest line cap to the external tests.
const MaxLineBytes = maxLineBytes

// MaxRoundJump exposes the virtual-clock round-jump bound to the external
// tests.
const MaxRoundJump = maxRoundJump

// IngestFresh serves one ingest call on newly made per-call state instead of
// pooled state: the reference a reused pooled batch and reader must match.
func (s *Server) IngestFresh(w http.ResponseWriter, r *http.Request) {
	s.ingest(w, r, newIngestBatch())
}

// FinalResult returns the engine result after Drain (nil before).
func (s *Server) FinalResult() *core.Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.final
}
