package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// client issues requests over keep-alive connections and always
// drains the body, which is what lets net/http reuse the connection.
// One client belongs to one goroutine at a time: the body of the last
// reply lives in a buffer the next request overwrites.
type client struct {
	http *http.Client
	buf  bytes.Buffer
}

func newClient() *client {
	return &client{http: &http.Client{
		Transport: &http.Transport{
			MaxIdleConnsPerHost: runtime.NumCPU(),
			DisableCompression:  true,
		},
		Timeout: 120 * time.Second,
	}}
}

// reply is one response. body is valid until the client's next
// request.
type reply struct {
	status  int
	body    []byte
	header  http.Header
	latency time.Duration // request sent → body fully read
}

func (c *client) get(url string) (reply, error) { return c.do(http.MethodGet, url, nil) }

func (c *client) post(url string, body []byte) (reply, error) {
	return c.do(http.MethodPost, url, body)
}

func (c *client) do(method, url string, body []byte) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return reply{}, err
	}
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return reply{}, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{}, fmt.Errorf("read body of %s: %w", url, err)
	}
	return reply{status: resp.StatusCode, body: c.buf.Bytes(), header: resp.Header,
		latency: time.Since(start)}, nil
}

// getJSON fetches url, requires a 200 and decodes the body into v.
func (c *client) getJSON(url string, v any) error {
	r, err := c.get(url)
	if err != nil {
		return err
	}
	if r.status != 200 {
		return fmt.Errorf("GET %s: status %d: %s", url, r.status, bytes.TrimSpace(r.body))
	}
	if err := json.Unmarshal(r.body, v); err != nil {
		return fmt.Errorf("GET %s: decode: %w", url, err)
	}
	return nil
}

// parseServerTiming extracts the per-span durations, in milliseconds,
// from a Server-Timing header ("queue;dur=0.05, index;dur=1.80").
// Entries without a numeric dur parameter are skipped.
func parseServerTiming(h string) map[string]float64 {
	out := map[string]float64{}
	for _, entry := range strings.Split(h, ",") {
		name, params, ok := strings.Cut(strings.TrimSpace(entry), ";")
		if !ok || name == "" {
			continue
		}
		for _, p := range strings.Split(params, ";") {
			v, ok := strings.CutPrefix(strings.TrimSpace(p), "dur=")
			if !ok {
				continue
			}
			if d, err := strconv.ParseFloat(v, 64); err == nil {
				out[name] = d
			}
		}
	}
	return out
}

// articleView mirrors the fields of the server's article JSON that
// the checks read.
type articleView struct {
	Key        string  `json:"key"`
	Year       int     `json:"year"`
	Rank       int     `json:"rank"`
	Importance float64 `json:"importance"`
}

// queryResponse mirrors the server's /query page.
type queryResponse struct {
	Version    int64         `json:"version"`
	Count      int           `json:"count"`
	Results    []articleView `json:"results"`
	NextCursor string        `json:"next_cursor"`
}

// serverStats mirrors the /stats fields the harness reads.
type serverStats struct {
	Articles       int     `json:"articles"`
	Version        int64   `json:"version"`
	Fingerprint    string  `json:"corpus_fingerprint"`
	CacheHits      int64   `json:"query_cache_hits"`
	CacheMisses    int64   `json:"query_cache_misses"`
	Shed           int64   `json:"query_shed"`
	ReorderSeconds float64 `json:"solver_reorder_seconds"`
}

func (s *server) stats() (serverStats, error) {
	var st serverStats
	return st, s.c.getJSON(s.base+"/stats", &st)
}
