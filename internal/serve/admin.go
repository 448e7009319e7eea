package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"

	"repro/internal/boot"
	"repro/internal/registry"
)

// onboardRequest is the POST /schemas body. Schema is required; every
// other field absent (or zero) inherits the server's Config.Spec, so
// an onboarded tenant is built like the boot-time ones.
type onboardRequest struct {
	// Schema names what to onboard: "patients", a spider-zoo schema, or
	// "synth:<seed>" for a generated cross-domain one.
	Schema string `json:"schema"`
	Model  string `json:"model,omitempty"`
	Seed   int64  `json:"seed,omitempty"`
	Rows   int    `json:"rows,omitempty"`
	// Critic overrides the server's critic setting for this tenant
	// (absent = inherit it).
	Critic *bool `json:"critic,omitempty"`
}

// schemasResponse is the GET /schemas body.
type schemasResponse struct {
	Schemas []registry.Status `json:"schemas"`
}

// handleSchemas routes the /schemas collection: GET lists every
// tenant's status, POST onboards a new schema in the background and
// answers 202 with its initial status.
func (s *Server) handleSchemas(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, schemasResponse{Schemas: s.reg.Statuses()})
	case http.MethodPost:
		s.handleOnboard(w, r)
	default:
		w.Header().Set("Allow", "GET, POST")
		writeError(w, KindValidation, 0, "method %s not allowed; use GET or POST", r.Method)
	}
}

// handleOnboard starts a background onboarding. The response is
// immediate; progress is polled via GET /schemas/{name} until the
// state reaches ready (or failed / rolled_back).
func (s *Server) handleOnboard(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		// A draining process is about to exit; accepting a build that
		// cannot finish would only leave a surprised poller.
		writeError(w, KindDraining, 0, "server is draining; not accepting onboarding")
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		writeError(w, KindValidation, 0, "unreadable request body")
		return
	}
	var req onboardRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, KindValidation, 0, "malformed JSON body; want {\"schema\": \"...\"}")
		return
	}
	if req.Schema == "" {
		writeError(w, KindValidation, 0, "schema is required")
		return
	}
	spec := s.cfg.Spec
	spec.Schema, spec.LoadPath = req.Schema, ""
	if req.Model != "" {
		spec.Model = req.Model
	}
	if req.Seed != 0 {
		spec.Seed = req.Seed
	}
	if req.Rows != 0 {
		spec.Rows = req.Rows
	}
	if req.Critic != nil {
		spec.Critic = *req.Critic
	}
	if _, _, rerr := boot.ResolveSchema(req.Schema, 1, 1); rerr != nil {
		writeError(w, KindValidation, 0, "%v", rerr)
		return
	}
	t, err := s.reg.Onboard(s.onboardCtx, spec)
	if err != nil {
		writeError(w, KindValidation, 0, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, t.Status())
}

// handleSchema routes one tenant: GET /schemas/{name} answers its
// status, DELETE removes it (cancelling any in-flight onboarding;
// requests already holding its version finish normally).
func (s *Server) handleSchema(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/schemas/")
	if name == "" || strings.Contains(name, "/") {
		writeError(w, KindNotFound, 0, "no route %s; want /schemas/{name}", r.URL.Path)
		return
	}
	switch r.Method {
	case http.MethodGet:
		t := s.reg.Lookup(name)
		if t == nil {
			writeError(w, KindNotFound, 0, "unknown schema %q; GET /schemas lists tenants", name)
			return
		}
		writeJSON(w, http.StatusOK, t.Status())
	case http.MethodDelete:
		if !s.reg.Remove(name) {
			writeError(w, KindNotFound, 0, "unknown schema %q; GET /schemas lists tenants", name)
			return
		}
		s.mu.Lock()
		delete(s.tenants, name)
		s.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	default:
		w.Header().Set("Allow", "GET, DELETE")
		writeError(w, KindValidation, 0, "method %s not allowed; use GET or DELETE", r.Method)
	}
}
