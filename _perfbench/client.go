package main

import (
	"context"
	"io"
	"net/http"
	"net/url"
	"time"
)

// clientDeadline is the harness's own per-request deadline. It is
// longer than dbpal-serve's default 10 s request timeout, so an expiry
// here means the server held the request past its own deadline.
const clientDeadline = 15 * time.Second

// result is one completed (or expired) ask.
type result struct {
	idx        int // position in the request list
	start, end time.Duration
	status     int // 0 when the client deadline expired or the transport failed
	body       []byte
}

// newClient returns a keep-alive HTTP client for one closed-loop
// client's connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{DisableCompression: true}}
}

// drive sends every request of the list exactly once from one closed-loop
// client — it waits for each answer before sending the next request — and
// returns the results in list order, timed from the call. One client,
// because the run has one CPU (pinOneCPU): a second would only add the
// wait behind the first's ask to every latency. Once ctx ends, the
// remaining requests are not sent and count as failed (status 0), so a
// stalled server costs failures, not an unbounded run.
func drive(ctx context.Context, hc *http.Client, baseURL, schemaName string, list []request) []result {
	base := time.Now()
	out := make([]result, len(list))
	for i, r := range list {
		if ctx.Err() == nil {
			out[i] = ask(ctx, hc, baseURL, schemaName, r.NL, base)
		}
		out[i].idx = i
	}
	return out
}

func ask(ctx context.Context, hc *http.Client, baseURL, schemaName, question string, base time.Time) result {
	ctx, cancel := context.WithTimeout(ctx, clientDeadline)
	defer cancel()
	u := baseURL + "/v1/" + schemaName + "/ask?q=" + url.QueryEscape(question)
	r := result{start: time.Since(base)}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err == nil {
		var resp *http.Response
		resp, err = hc.Do(req)
		if err == nil {
			r.body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			r.status = resp.StatusCode
		}
	}
	r.end = time.Since(base)
	if err != nil {
		r.status = 0
	}
	return r
}
