package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"mac3d/internal/obs"
)

// API is what the /v1 handler serves. A cluster router
// (*cluster.Router) implements it, and Handler adapts a *Service to
// it, so one route table, one error mapping and one metrics rendering
// answer for both and a client cannot tell them apart.
type API interface {
	// Submit admits one raw JSON spec on behalf of tenant (the
	// X-Macd-Tenant header; empty is the anonymous tenant).
	Submit(ctx context.Context, spec []byte, tenant string) (JobStatus, error)
	Job(ctx context.Context, id string) (JobStatus, error)
	// Jobs lists the retained jobs, newest first.
	Jobs() []JobStatus
	Result(ctx context.Context, id string) ([]byte, error)
	Cancel(ctx context.Context, id string) (bool, error)
	ResultByHash(ctx context.Context, hash string) ([]byte, bool)
	// Health is the /v1/healthz body; it carries at least "ok" and
	// "draining".
	Health() map[string]any
	Registry() *obs.Registry
	// RetryAfter is the Retry-After, in whole seconds, served with a
	// 429 or 503 answering err to tenant.
	RetryAfter(err error, tenant string) int
}

// Handler returns the macd HTTP API bound to s (see Routes).
func Handler(s *Service) http.Handler { return Routes(daemon{s}) }

// daemon adapts *Service to API: a daemon has one tenant and answers
// without waiting on anything a context could cancel.
type daemon struct{ *Service }

func (d daemon) Submit(_ context.Context, spec []byte, _ string) (JobStatus, error) {
	return d.SubmitJSON(spec)
}
func (d daemon) Job(_ context.Context, id string) (JobStatus, error) { return d.Service.Job(id) }
func (d daemon) Result(_ context.Context, id string) ([]byte, error) { return d.Service.Result(id) }
func (d daemon) Cancel(_ context.Context, id string) (bool, error)   { return d.Service.Cancel(id) }
func (d daemon) ResultByHash(_ context.Context, h string) ([]byte, bool) {
	return d.Service.ResultByHash(h)
}
func (d daemon) Health() map[string]any       { return map[string]any{"ok": true, "draining": d.Draining()} }
func (d daemon) RetryAfter(error, string) int { return d.RetryAfterHint() }

// Routes returns the /v1 route table bound to api:
//
//	POST   /v1/jobs            submit a JSON job spec
//	GET    /v1/jobs            list retained jobs, newest first
//	GET    /v1/jobs/{id}       one job's status
//	GET    /v1/jobs/{id}/result the finished job's report JSON
//	DELETE /v1/jobs/{id}       cancel a queued or running job
//	GET    /v1/results/{hash}  stored result by spec hash (peer read-through)
//	GET    /v1/healthz         liveness and drain state
//	GET    /v1/metrics         the obs registry as "name value" lines
//
// Submission answers 200 for a cache hit and 202 for a queued or
// coalesced job; every failure's status comes from errorStatus.
// Callers may add routes to the returned mux.
func Routes(api API) *http.ServeMux {
	mux := http.NewServeMux()
	fail := func(w http.ResponseWriter, r *http.Request, op string, err error) {
		code, retry := errorStatus(op, err)
		if retry {
			tenant := strings.TrimSpace(r.Header.Get("X-Macd-Tenant"))
			w.Header().Set("Retry-After", strconv.Itoa(api.RetryAfter(err, tenant)))
		}
		httpError(w, code, err)
	}
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("service: reading body: %w", err))
			return
		}
		st, err := api.Submit(r.Context(), body, strings.TrimSpace(r.Header.Get("X-Macd-Tenant")))
		if err != nil {
			fail(w, r, "submit", err)
			return
		}
		code := http.StatusAccepted
		if st.Cached {
			code = http.StatusOK
		}
		writeJSON(w, code, st)
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, api.Jobs())
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := api.Job(r.Context(), r.PathValue("id"))
		if err != nil {
			fail(w, r, "job", err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		data, err := api.Result(r.Context(), r.PathValue("id"))
		if err != nil {
			fail(w, r, "result", err)
			return
		}
		writeRaw(w, "application/json", data)
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		canceled, err := api.Cancel(r.Context(), r.PathValue("id"))
		if err != nil {
			fail(w, r, "cancel", err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"canceled": canceled})
	})
	mux.HandleFunc("GET /v1/results/{hash}", func(w http.ResponseWriter, r *http.Request) {
		// A miss is 404: peers treat any failure as a miss and execute
		// locally.
		data, ok := api.ResultByHash(r.Context(), r.PathValue("hash"))
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("service: no stored result for hash %q", r.PathValue("hash")))
			return
		}
		writeRaw(w, "application/json", data)
	})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, api.Health())
	})
	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		var b strings.Builder
		for _, m := range api.Registry().Snapshot() {
			fmt.Fprintf(&b, "%s %g\n", m.Name, m.Value)
		}
		writeRaw(w, "text/plain; charset=utf-8", []byte(b.String()))
	})
	return mux
}

// errorStatus is the one error→status mapping of the /v1 surface: the
// status a failure of route op ("submit", "job", "result" or "cancel")
// answers with, and whether it carries a Retry-After. A cancel fails
// otherwise than 404 only on a router that cannot reach the job's
// shard (502). Backpressure (a full queue, a tenant over quota) is 429
// and a surface that cannot serve now (draining, no healthy shard) 503.
// Anything else is the caller's: a bad spec, or a failed job's result.
func errorStatus(op string, err error) (code int, retryAfter bool) {
	switch {
	case op != "submit" && errors.Is(err, ErrUnknownJob):
		return http.StatusNotFound, false
	case op == "result" && errors.Is(err, ErrNotFinished):
		return http.StatusConflict, false
	case op == "cancel":
		return http.StatusBadGateway, false
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests, true
	case retryable(err):
		return http.StatusServiceUnavailable, true
	case op == "submit":
		return http.StatusBadRequest, false
	}
	return http.StatusUnprocessableEntity, false
}

func writeRaw(w http.ResponseWriter, contentType string, data []byte) {
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
