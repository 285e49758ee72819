package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"emgo/internal/serve"
)

// endpoint is a server's handler behind a loopback listener, with a
// client that uses at most conns connections.
type endpoint struct {
	base   string
	srv    *http.Server
	done   chan error
	client *http.Client
	tr     *http.Transport
}

// listen serves h on 127.0.0.1 on a free port.
func listen(h http.Handler, conns int) (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	ep := &endpoint{
		base:   "http://" + ln.Addr().String(),
		srv:    &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		done:   make(chan error, 1),
		client: &http.Client{Transport: tr, Timeout: 60 * time.Second},
		tr:     tr,
	}
	go func() { ep.done <- ep.srv.Serve(ln) }()
	return ep, nil
}

// close stops the listener and waits for the serving goroutine.
func (ep *endpoint) close() {
	ep.tr.CloseIdleConnections()
	ep.srv.Close()
	<-ep.done
}

// post sends body and decodes a JSON answer into out when the status
// is 2xx; it returns the status.
func (ep *endpoint) post(path string, body []byte, out any) (int, error) {
	resp, err := ep.client.Post(ep.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	return decodeJSON(resp, out)
}

// get fetches path and decodes a JSON answer into out on 2xx.
func (ep *endpoint) get(path string, out any) (int, error) {
	resp, err := ep.client.Get(ep.base + path)
	if err != nil {
		return 0, err
	}
	return decodeJSON(resp, out)
}

func decodeJSON(resp *http.Response, out any) (int, error) {
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return resp.StatusCode, fmt.Errorf("decode answer: %w", err)
	}
	return resp.StatusCode, nil
}

// matchBodies renders one /v1/match request body per left row.
func matchBodies(recs []map[string]any) ([][]byte, error) {
	out := make([][]byte, len(recs))
	for i, rec := range recs {
		data, err := json.Marshal(serve.MatchRequest{Record: rec})
		if err != nil {
			return nil, err
		}
		out[i] = data
	}
	return out, nil
}
