package remotecache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"sync/atomic"
	"time"

	"safeflow/internal/diskcache"
)

// MaxEntryBytes bounds one cached payload on the wire; anything larger
// is refused rather than buffered (no real parse entry comes close).
const MaxEntryBytes = 64 << 20

var nsPattern = regexp.MustCompile(`^[a-z][a-z0-9_-]{0,31}$`)

// ServerStats is sfcached's /metricsz payload.
type ServerStats struct {
	UptimeSeconds float64 `json:"uptime_seconds"`

	Gets        int64 `json:"gets"`
	GetHits     int64 `json:"get_hits"`
	GetMisses   int64 `json:"get_misses"`
	Puts        int64 `json:"puts"`
	PutRejected int64 `json:"put_rejected"` // checksum mismatch / oversize
	BadRequests int64 `json:"bad_requests"`

	Store diskcache.Stats `json:"store"`
}

// Server serves the remote-cache protocol over a diskcache.Store: the
// process half of sfcached. The store carries all integrity discipline
// (checksums, atomic writes, LRU bounds); the server adds only the wire
// mapping and request counters.
type Server struct {
	store *diskcache.Store
	start time.Time

	gets        atomic.Int64
	getHits     atomic.Int64
	getMisses   atomic.Int64
	puts        atomic.Int64
	putRejected atomic.Int64
	badRequests atomic.Int64
}

// NewServer wraps store; mount Handler on an HTTP server.
func NewServer(store *diskcache.Store) *Server {
	return &Server{store: store, start: time.Now()}
}

// Handler returns the sfcached mux: the entry routes plus /healthz and
// /metricsz.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/e/{ns}/{version}/{key}", s.handleGet)
	mux.HandleFunc("PUT /v1/e/{ns}/{version}/{key}", s.handlePut)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte("{\"status\":\"ok\"}\n"))
	})
	mux.HandleFunc("GET /metricsz", s.handleMetricsz)
	return mux
}

// entryPath validates and decodes the {ns}/{version}/{key} wildcards.
func (s *Server) entryPath(w http.ResponseWriter, r *http.Request) (ns string, version uint32, key [sha256.Size]byte, ok bool) {
	ns = r.PathValue("ns")
	v64, err := strconv.ParseUint(r.PathValue("version"), 10, 32)
	raw, kerr := hex.DecodeString(r.PathValue("key"))
	if !nsPattern.MatchString(ns) || err != nil || kerr != nil || len(raw) != sha256.Size {
		s.badRequests.Add(1)
		http.Error(w, "bad entry path", http.StatusBadRequest)
		return "", 0, key, false
	}
	copy(key[:], raw)
	return ns, uint32(v64), key, true
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	ns, version, key, ok := s.entryPath(w, r)
	if !ok {
		return
	}
	s.gets.Add(1)
	data, hit, _ := s.store.Get(ns, version, key)
	if !hit {
		// Misses and corrupt evictions both surface as 404: the store
		// already evicted and counted a bad entry, and the client's only
		// recovery is to recompute either way.
		s.getMisses.Add(1)
		http.NotFound(w, r)
		return
	}
	s.getHits.Add(1)
	sum := sha256.Sum256(data)
	w.Header().Set(sumHeader, hex.EncodeToString(sum[:]))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data)
}

func (s *Server) handlePut(w http.ResponseWriter, r *http.Request) {
	ns, version, key, ok := s.entryPath(w, r)
	if !ok {
		return
	}
	s.puts.Add(1)
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxEntryBytes))
	if err != nil {
		s.putRejected.Add(1)
		http.Error(w, "body unreadable or over size bound", http.StatusBadRequest)
		return
	}
	// A client-supplied checksum lets us refuse bodies corrupted in
	// transit instead of storing them (the store would happily record a
	// checksum over the already-bad bytes).
	if want := r.Header.Get(sumHeader); want != "" {
		sum := sha256.Sum256(data)
		if want != hex.EncodeToString(sum[:]) {
			s.putRejected.Add(1)
			http.Error(w, "payload checksum mismatch", http.StatusBadRequest)
			return
		}
	}
	s.store.Put(ns, version, key, data)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	st := ServerStats{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Gets:          s.gets.Load(),
		GetHits:       s.getHits.Load(),
		GetMisses:     s.getMisses.Load(),
		Puts:          s.puts.Load(),
		PutRejected:   s.putRejected.Load(),
		BadRequests:   s.badRequests.Load(),
		Store:         s.store.Snapshot(),
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(st)
}
