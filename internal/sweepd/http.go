package sweepd

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"latsim/internal/sweepd/api"
)

// maxSpecBytes bounds a sweep submission body. Specs are small (an
// experiment name or a modest job list); anything bigger is a mistake
// or abuse.
const maxSpecBytes = 1 << 20

// Handler returns the service's HTTP API.
//
//	POST   /v1/sweeps             submit a sweep (api.SweepSpec body)
//	GET    /v1/sweeps             list sweeps
//	GET    /v1/sweeps/{id}        sweep status
//	GET    /v1/sweeps/{id}/result rendered result (terminal sweeps)
//	GET    /v1/sweeps/{id}/report merged observability report (obs sweeps)
//	GET    /v1/sweeps/{id}/obs    dashboard observability pane document
//	GET    /v1/sweeps/{id}/diff   diff vs another sweep (?base=<id>)
//	DELETE /v1/sweeps/{id}        cancel
//	GET    /v1/stats              service + engine counters
//	GET    /healthz               liveness
//	GET    /dashboard             live HTML dashboard
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", s.handleSubmit)
	mux.HandleFunc("GET /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.List())
	})
	mux.HandleFunc("GET /v1/sweeps/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/sweeps/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/sweeps/{id}/report", s.handleReport)
	mux.HandleFunc("GET /v1/sweeps/{id}/obs", s.handleObs)
	mux.HandleFunc("GET /v1/sweeps/{id}/diff", s.handleDiff)
	mux.HandleFunc("DELETE /v1/sweeps/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /dashboard", s.handleDashboard)
	mux.HandleFunc("GET /dashboard/events", s.handleEvents)
	return mux
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if len(body) > maxSpecBytes {
		writeError(w, http.StatusRequestEntityTooLarge, "sweep spec exceeds %d bytes", maxSpecBytes)
		return
	}
	spec, err := api.ParseSpec(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	id, err := s.Submit(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, api.Created{ID: id})
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	st := s.Status(r.PathValue("id"))
	if st == nil {
		writeError(w, http.StatusNotFound, "no sweep %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	data, contentType, state, ok := s.Result(id)
	if !ok {
		switch state {
		case "":
			writeError(w, http.StatusNotFound, "no sweep %q", id)
		case api.StateRunning:
			// 409: the resource exists but is not ready; poll status.
			writeError(w, http.StatusConflict, "sweep %s is %s", id, state)
		default:
			writeError(w, http.StatusConflict, "sweep %s %s without a result", id, state)
		}
		return
	}
	w.Header().Set("Content-Type", contentType)
	w.Write(data)
}

func (s *Service) handleReport(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	agg, err := s.Report(id)
	if err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	if agg == nil {
		writeError(w, http.StatusNotFound, "no sweep %q", id)
		return
	}
	writeJSON(w, http.StatusOK, agg)
}

func (s *Service) handleObs(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	doc, err := s.Obs(id)
	if err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	if doc == nil {
		writeError(w, http.StatusNotFound, "no sweep %q", id)
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

func (s *Service) handleDiff(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	base := r.URL.Query().Get("base")
	if base == "" {
		writeError(w, http.StatusBadRequest, "missing ?base=<sweep id>")
		return
	}
	d, err := s.Diff(base, id)
	if err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	if d == nil {
		writeError(w, http.StatusNotFound, "no sweep %q or %q", base, id)
		return
	}
	writeJSON(w, http.StatusOK, d)
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.Cancel(id) {
		writeError(w, http.StatusNotFound, "no sweep %q", id)
		return
	}
	writeJSON(w, http.StatusOK, s.Status(id))
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(api.Error{Error: fmt.Sprintf(format, args...)})
}
