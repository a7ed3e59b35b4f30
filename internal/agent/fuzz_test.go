package agent

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/livedock"
	"repro/internal/runtime"
)

// fuzzRoutes are the agent's registered routes plus the routes it no
// longer serves (raw launch, stop, stats and limit update); {} stands for
// a job name or container id drawn from the input or the node's pool.
var fuzzRoutes = []string{
	"/v1/ping", "/v1/metrics", "/v1/healthz", "/v1/stats",
	"/v1/containers", "/v1/containers/{}", "/v1/containers/{}/update", "/v1/containers/{}/stop",
	"/v1/jobs", "/v1/jobs/{}", "/v1/jobs/{}/cancel", "/v1/jobs/{}/stop",
}

var fuzzMethods = []string{http.MethodGet, http.MethodPost, http.MethodDelete, http.MethodPut}

var knownCodes = map[string]bool{
	CodeNotFound: true, CodeNotRunning: true, CodeRunning: true, CodeNameInUse: true, CodeBadLimit: true,
	CodeQueueFull: true, CodeDraining: true, CodeBadRequest: true, CodeInternal: true,
}

// FuzzAgentRequests runs a fuzzed request sequence through the agent's
// handler on a fake-clock node capped at two running containers. Each op
// is four bytes: method, route (one past the list drains the agent),
// path target, and body plus clock step. After every request nothing has
// panicked, every handler error is the JSON envelope with a known code
// (the mux's own 404 and 405 excepted), the cap holds, every container
// the node ever started was a counted submission, and every accepted
// submission's name addresses its job by path.
func FuzzAgentRequests(f *testing.F) {
	bodies := strings.Join([]string{
		`{"name":"a","model":"MNIST (Pytorch)"}`,
		`{"name":"b","model":"RNN-GRU (Tensorflow)","cpu_limit":0.5}`,
		`{"cpu_limit":0.25}`,
		// TestMalformedJSONBodies's bodies, and two for the retired
		// limit-update route.
		`{"name":"x","model":`, `not json at all`, `{"name":7,"model":true}`, ``,
		`{"cpu_limit":`, `{"cpu_limit":"half"}`,
	}, "\n")
	f.Add([]byte{1, 8, 0, 0, 1, 8, 0, 1, 1, 8, 0, 0, 0, 9, 1, 0, 1, 10, 0, 0}, "a\nb", bodies)
	f.Add([]byte{1, 4, 0, 0, 1, 6, 2, 2, 2, 5, 2, 0, 1, 7, 2, 0, 1, 11, 0, 0}, "a\nx", bodies)
	f.Add([]byte{1, 8, 0, 0, 1, 8, 1, 1, 1, 8, 2, 0, 1, 12, 0, 0, 1, 8, 0, 0, 0, 1, 0, 0}, "a\nb\nc", bodies)
	f.Add([]byte{1, 8, 0, 3, 1, 8, 0, 4, 1, 8, 0, 5, 1, 8, 0, 6, 1, 8, 0, 7, 1, 8, 0, 8}, "", bodies)
	f.Add([]byte{1, 8, 0, 0, 0, 9, 0, 200, 2, 5, 0, 0, 1, 8, 0, 0}, "a", bodies)
	f.Add([]byte{1, 8, 0, 0, 1, 8, 0, 1}, "a",
		`{"name":"..","model":"MNIST (Pytorch)"}`+"\n"+`{"name":".","model":"MNIST (Pytorch)"}`)
	f.Fuzz(func(t *testing.T, ops []byte, targets, bodies string) {
		if len(ops) > 4*64 {
			ops = ops[:4*64]
		}
		clk := newFakeClock()
		node := livedock.NewNodeWithClock(1.0, clk.Now)
		s := NewServer(node, 1.0)
		s.SetAdmissionLimits(2, 2)
		h := s.Handler()
		started := 0
		node.OnStart(func(runtime.Container) { started++ })
		names := strings.Split(targets, "\n")
		bodyPool := strings.Split(bodies, "\n")
		for i := 0; i+3 < len(ops); i += 4 {
			method := fuzzMethods[int(ops[i])%len(fuzzMethods)]
			route := int(ops[i+1]) % (len(fuzzRoutes) + 1)
			if route == len(fuzzRoutes) {
				s.Drain()
				continue
			}
			pool := names
			for _, c := range node.PS(true) {
				pool = append(pool, c.ID)
			}
			target := url.PathEscape(pool[int(ops[i+2])%len(pool)])
			path := strings.Replace(fuzzRoutes[route], "{}", target, 1)
			body := bodyPool[int(ops[i+3])%len(bodyPool)]
			clk.Advance(time.Duration(ops[i+3]%8) * time.Second)

			rec := serve(h, method, path, body)
			checkErrorEnvelope(t, method, path, rec)
			if method == http.MethodPost && path == "/v1/jobs" &&
				(rec.Code == http.StatusCreated || rec.Code == http.StatusAccepted) {
				var req SubmitRequest
				_ = json.NewDecoder(strings.NewReader(body)).Decode(&req)
				status := "/v1/jobs/" + url.PathEscape(req.Name)
				if got := serve(h, http.MethodGet, status, ""); got.Code != http.StatusOK {
					t.Fatalf("submit of %q answered %d, then GET %s answered %d", req.Name, rec.Code, status, got.Code)
				}
			}
			if n := node.RunningCount(); n > 2 {
				t.Fatalf("%s %s: %d running past the cap of 2", method, path, n)
			}
			text := serve(h, http.MethodGet, "/v1/metrics", "").Body.String()
			submits := metricValue(t, text, "flowcon_agent_submits_total")
			if held := len(node.PS(true)); held > started || float64(started) > submits {
				t.Fatalf("%s %s: node holds %d and started %d containers against %g counted submissions",
					method, path, held, started, submits)
			}
		}
	})
}

// checkErrorEnvelope fails unless an error response is the agent's JSON
// envelope with a known code; the mux's own plain-text 404 and 405 pass.
func checkErrorEnvelope(t *testing.T, method, path string, rec *httptest.ResponseRecorder) {
	t.Helper()
	if rec.Code < 400 {
		return
	}
	ct := rec.Header().Get("Content-Type")
	if (rec.Code == http.StatusNotFound || rec.Code == http.StatusMethodNotAllowed) && strings.HasPrefix(ct, "text/plain") {
		return
	}
	var env errorBody
	if ct != "application/json" || json.Unmarshal(rec.Body.Bytes(), &env) != nil || env.Error == "" || !knownCodes[env.Code] {
		t.Fatalf("%s %s: status %d with %q body %q, want the JSON error envelope with a known code",
			method, path, rec.Code, ct, rec.Body)
	}
}
