package server

import (
	"fmt"
	"net/http"
	"net/http/pprof"

	"dkbms/internal/obs"
)

// DebugHandler returns the server's debug HTTP surface, mounted by dkbd
// under -debug-addr:
//
//	/metrics       metrics-registry snapshot, Prometheus text exposition
//	/metrics.json  the same snapshot as a JSON array
//	/debug/trace   Chrome/Perfetto trace-event JSON for one retained
//	               query (?id=q<hex> from a RESULT echo or the slow log)
//	/slowlog       slow-query ring snapshot (JSON object)
//	/healthz       liveness probe ("ok", 200)
//	/debug/pprof/  Go runtime profiles
//
// This listener is the server's only telemetry transport: the query
// port carries PING, LOAD, QUERY and RETRACT alone, so a monitor never
// queues behind MaxConns for a session slot. Both metrics endpoints
// serve current values only; the server keeps no history of them. A
// reader takes rates from two polls (dkbtop) or keeps its own history
// (a Prometheus scraper of /metrics).
//
// The pprof handlers are registered explicitly on a private mux (not via
// the net/http/pprof import side effect on DefaultServeMux), so serving
// this handler never exposes profiles on muxes the caller did not ask
// for.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", obs.PromContentType)
		if err := s.reg.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := s.reg.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		qid, err := obs.ParseQueryID(r.URL.Query().Get("id"))
		if err != nil {
			http.Error(w, "bad or missing ?id= query id: "+err.Error(), http.StatusBadRequest)
			return
		}
		for _, e := range s.slow.Snapshot() {
			if e.QueryID != qid {
				continue
			}
			if e.Trace == nil {
				http.Error(w, "query retained without a trace; run it with the Trace option",
					http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			if err := obs.WriteChromeTrace(w, e.Trace, qid); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
			return
		}
		http.Error(w, "no retained query with id "+obs.FormatQueryID(qid), http.StatusNotFound)
	})
	mux.HandleFunc("/slowlog", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := s.slow.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
