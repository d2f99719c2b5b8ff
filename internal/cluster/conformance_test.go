package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"mac3d/internal/service"
)

// tableRunner is the daemon runner of the conformance table: seed 2
// runs until hold closes, seed 3 fails, and any other spec answers at
// once with bytes derived from its hash.
func tableRunner(hold <-chan struct{}) func(service.RunFunc) service.RunFunc {
	return func(service.RunFunc) service.RunFunc {
		return func(s service.Spec) ([]byte, error) {
			switch s.Run.Seed {
			case 2:
				<-hold
			case 3:
				return nil, errors.New("boom")
			}
			h, err := s.Hash()
			if err != nil {
				return nil, err
			}
			return []byte(`{"report":"` + h + `"}`), nil
		}
	}
}

// tableDaemon serves a one-worker, one-slot daemon running tableRunner
// and returns its URL and the function that stops it.
func tableDaemon(t *testing.T) (url string, stop func()) {
	t.Helper()
	hold := make(chan struct{})
	svc, err := service.New(service.Config{Workers: 1, QueueDepth: 1, WrapRunner: tableRunner(hold)})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(service.Handler(svc))
	stopped := false
	stop = func() {
		if !stopped {
			stopped = true
			srv.Close()
			close(hold)
			svc.Kill()
		}
	}
	t.Cleanup(stop)
	return srv.URL, stop
}

// tableRouter serves a router over shards whose health plane stays out
// of the way: no probe runs while a test lasts.
func tableRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	cfg.Heartbeat = time.Hour
	cfg.Seed = 1
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

// answer is one HTTP exchange as the table sees it.
type answer struct {
	code       int
	retryAfter string
	body       []byte
}

func call(t *testing.T, method, url, body, tenant string) answer {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-Macd-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return answer{resp.StatusCode, resp.Header.Get("Retry-After"), data}
}

// errorBody reports whether a is exactly {"error": "<non-empty>"}.
func (a answer) errorBody() bool {
	var m map[string]any
	if json.Unmarshal(a.body, &m) != nil || len(m) != 1 {
		return false
	}
	msg, ok := m["error"].(string)
	return ok && msg != ""
}

func (a answer) status(t *testing.T) service.JobStatus {
	t.Helper()
	var st service.JobStatus
	if err := json.Unmarshal(a.body, &st); err != nil {
		t.Fatalf("status body %q: %v", a.body, err)
	}
	return st
}

// awaitState polls a job's status on base until done says stop.
func awaitState(t *testing.T, base, id string, done func(service.State) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		a := call(t, http.MethodGet, base+"/v1/jobs/"+id, "", "")
		if a.code == http.StatusOK && done(a.status(t).State) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s: last answer %d %s", id, a.code, a.body)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSurfaceConformance runs one table against a daemon and against a
// router in front of its own daemon: both surfaces must answer every
// case with the same status, the same Retry-After presence and the
// same body shape.
func TestSurfaceConformance(t *testing.T) {
	surfaces := map[string]func(t *testing.T) string{
		"daemon": func(t *testing.T) string {
			url, _ := tableDaemon(t)
			return url
		},
		"router": func(t *testing.T) string {
			shard, _ := tableDaemon(t)
			front := httptest.NewServer(Handler(tableRouter(t, Config{Shards: []string{shard}})))
			t.Cleanup(front.Close)
			return front.URL
		},
	}
	for _, name := range []string{"daemon", "router"} {
		t.Run(name, func(t *testing.T) {
			base := surfaces[name](t)
			ids := map[string]string{}
			submit := func(key string, seed int) answer {
				a := call(t, http.MethodPost, base+"/v1/jobs", string(testSpec(seed)), "")
				if a.code == http.StatusOK || a.code == http.StatusAccepted {
					ids[key] = a.status(t).ID
				}
				return a
			}
			terminal := func(s service.State) bool { return s.Terminal() }
			for _, c := range []struct {
				name       string
				do         func() answer
				code       int
				retryAfter bool
				check      func(a answer) bool
			}{
				{name: "invalid spec", code: http.StatusBadRequest,
					do: func() answer { return call(t, http.MethodPost, base+"/v1/jobs", `{"kind":"nope"}`, "") }},
				{name: "first submit", code: http.StatusAccepted,
					do: func() answer { return submit("first", 1) }},
				{name: "repeat submit", code: http.StatusOK,
					do: func() answer {
						awaitState(t, base, ids["first"], terminal)
						return submit("repeat", 1)
					},
					check: func(a answer) bool { return a.status(t).Cached }},
				{name: "unknown job status", code: http.StatusNotFound,
					do: func() answer { return call(t, http.MethodGet, base+"/v1/jobs/nope", "", "") }},
				{name: "unknown job result", code: http.StatusNotFound,
					do: func() answer { return call(t, http.MethodGet, base+"/v1/jobs/nope/result", "", "") }},
				{name: "unknown job cancel", code: http.StatusNotFound,
					do: func() answer { return call(t, http.MethodDelete, base+"/v1/jobs/nope", "", "") }},
				{name: "unknown hash", code: http.StatusNotFound,
					do: func() answer {
						return call(t, http.MethodGet, base+"/v1/results/"+strings.Repeat("0", 64), "", "")
					}},
				{name: "failed job result", code: http.StatusUnprocessableEntity,
					do: func() answer {
						submit("failed", 3)
						awaitState(t, base, ids["failed"], terminal)
						return call(t, http.MethodGet, base+"/v1/jobs/"+ids["failed"]+"/result", "", "")
					}},
				{name: "unfinished job result", code: http.StatusConflict,
					do: func() answer {
						submit("held", 2)
						awaitState(t, base, ids["held"], func(s service.State) bool { return s == service.StateRunning })
						return call(t, http.MethodGet, base+"/v1/jobs/"+ids["held"]+"/result", "", "")
					}},
				{name: "full queue", code: http.StatusTooManyRequests, retryAfter: true,
					do: func() answer {
						if a := submit("queued", 4); a.code != http.StatusAccepted {
							t.Fatalf("queued submit: %d %s", a.code, a.body)
						}
						return submit("refused", 5)
					}},
				{name: "healthz", code: http.StatusOK,
					do: func() answer { return call(t, http.MethodGet, base+"/v1/healthz", "", "") },
					check: func(a answer) bool {
						var h map[string]any
						return json.Unmarshal(a.body, &h) == nil && h["ok"] == true && h["draining"] == false
					}},
				{name: "metrics", code: http.StatusOK,
					do: func() answer { return call(t, http.MethodGet, base+"/v1/metrics", "", "") },
					check: func(a answer) bool {
						lines := strings.Split(strings.TrimSuffix(string(a.body), "\n"), "\n")
						for _, l := range lines {
							f := strings.Fields(l)
							if len(f) != 2 {
								return false
							}
							if _, err := strconv.ParseFloat(f[1], 64); err != nil {
								return false
							}
						}
						return len(lines) > 1
					}},
				{name: "list newest first", code: http.StatusOK,
					do: func() answer { return call(t, http.MethodGet, base+"/v1/jobs", "", "") },
					check: func(a answer) bool {
						var list []service.JobStatus
						if json.Unmarshal(a.body, &list) != nil || len(list) < 4 {
							return false
						}
						for i := 1; i < len(list); i++ {
							if list[i-1].ID <= list[i].ID {
								return false
							}
						}
						return list[0].ID == ids["queued"] && list[len(list)-1].ID == ids["first"]
					}},
			} {
				a := c.do()
				wantErr := c.code >= 400
				if a.code != c.code || (a.retryAfter != "") != c.retryAfter || a.errorBody() != wantErr {
					t.Errorf("%s: HTTP %d Retry-After %q body %s; want %d, Retry-After %v, error body %v",
						c.name, a.code, a.retryAfter, bytes.TrimSpace(a.body), c.code, c.retryAfter, wantErr)
					continue
				}
				if c.check != nil && !c.check(a) {
					t.Errorf("%s: body %s", c.name, bytes.TrimSpace(a.body))
				}
			}
		})
	}
}

// TestRouterOnlyStatuses pins the answers only a router gives: a quota
// 429 carries the tenant's token deficit as its Retry-After, a cancel
// whose shard cannot be reached is 502, and a result no shard can
// serve is 503 with a Retry-After.
func TestRouterOnlyStatuses(t *testing.T) {
	shard, stopShard := tableDaemon(t)
	r := tableRouter(t, Config{
		Shards:  []string{shard},
		Tenants: map[string]Quota{"limited": {Rate: 0.001, Burst: 1}},
	})
	front := httptest.NewServer(Handler(r))
	defer front.Close()
	base := front.URL

	if a := call(t, http.MethodPost, base+"/v1/jobs", string(testSpec(1)), "limited"); a.code != http.StatusAccepted {
		t.Fatalf("in-quota submit: %d %s", a.code, a.body)
	}
	// One token short at 0.001 tokens/s is 1000 s, clamped to 60; the
	// cluster backlog hint would say 1.
	if a := call(t, http.MethodPost, base+"/v1/jobs", string(testSpec(6)), "limited"); a.code != http.StatusTooManyRequests ||
		a.retryAfter != "60" || !a.errorBody() {
		t.Fatalf("over-quota submit: HTTP %d Retry-After %q body %s; want 429, 60", a.code, a.retryAfter, a.body)
	}

	done := call(t, http.MethodPost, base+"/v1/jobs", string(testSpec(7)), "").status(t).ID
	awaitState(t, base, done, func(s service.State) bool { return s.Terminal() })
	held := call(t, http.MethodPost, base+"/v1/jobs", string(testSpec(2)), "").status(t).ID
	awaitState(t, base, held, func(s service.State) bool { return s == service.StateRunning })
	stopShard()

	if a := call(t, http.MethodDelete, base+"/v1/jobs/"+held, "", ""); a.code != http.StatusBadGateway ||
		a.retryAfter != "" || !a.errorBody() {
		t.Errorf("cancel on an unreachable shard: HTTP %d Retry-After %q body %s; want 502, none", a.code, a.retryAfter, a.body)
	}
	if a := call(t, http.MethodGet, base+"/v1/jobs/"+done+"/result", "", ""); a.code != http.StatusServiceUnavailable ||
		a.retryAfter == "" || !a.errorBody() {
		t.Errorf("result no shard can serve: HTTP %d Retry-After %q body %s; want 503 with Retry-After", a.code, a.retryAfter, a.body)
	}
}
