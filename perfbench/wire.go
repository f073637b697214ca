package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	subseq "repro"
)

// The HTTP side of the benchmark speaks the documented wire format
// (docs/SERVING.md, docs/SHARDING.md) through these types of its own, so
// it depends on no server package.

type wireMatch struct {
	SeqID  int     `json:"seq_id"`
	QStart int     `json:"q_start"`
	QEnd   int     `json:"q_end"`
	XStart int     `json:"x_start"`
	XEnd   int     `json:"x_end"`
	Dist   float64 `json:"dist"`
}

func toWire(ms []subseq.Match) []wireMatch {
	out := make([]wireMatch, len(ms))
	for i, m := range ms {
		out[i] = wireMatch{m.SeqID, m.QStart, m.QEnd, m.XStart, m.XEnd, m.Dist}
	}
	return out
}

type findAllResponse struct {
	Count       int             `json:"count"`
	Matches     []wireMatch     `json:"matches"`
	Degradation json.RawMessage `json:"degradation"`
}

type bestResponse struct {
	Found       bool            `json:"found"`
	Match       *wireMatch      `json:"match"`
	Degradation json.RawMessage `json:"degradation"`
}

type adminResponse struct {
	SeqID *int `json:"seq_id"`
	Acks  int  `json:"acks"`
}

// shardStats is the part of a serve process's GET /stats the benchmark
// reads.
type shardStats struct {
	DistanceCalls struct {
		Filter int64 `json:"filter"`
		Verify int64 `json:"verify"`
	} `json:"distance_calls"`
	Stream struct {
		Completed int64 `json:"completed"`
		Rejected  int64 `json:"rejected"`
		Shed      int64 `json:"shed"`
		Expired   int64 `json:"expired"`
		QueueWait struct {
			Buckets []struct {
				LE    float64 `json:"le_ms"`
				Count int64   `json:"count"`
			} `json:"buckets"`
		} `json:"queue_wait"`
	} `json:"stream"`
	Batch struct {
		Calls   int64 `json:"calls"`
		Queries int64 `json:"queries"`
	} `json:"batch"`
	Store struct {
		Sequences int `json:"sequences"`
		Live      int `json:"live"`
	} `json:"store"`
}

// gatewayStats is the part of the gateway's GET /stats the benchmark reads.
type gatewayStats struct {
	Gateway struct {
		Writes       int64 `json:"writes"`
		Degraded     int64 `json:"degraded"`
		SingleFlight struct {
			Hits int64 `json:"hits"`
		} `json:"single_flight"`
	} `json:"gateway"`
	Cache *struct {
		Hits          int64 `json:"hits"`
		Misses        int64 `json:"misses"`
		Evictions     int64 `json:"evictions"`
		Invalidations int64 `json:"invalidations"`
	} `json:"cache"`
}

// httpClient is the benchmark's client: at most fleetConns connections per
// host, kept alive between requests.
func httpClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     fleetConns,
			MaxIdleConnsPerHost: fleetConns,
			DisableCompression:  true,
		},
	}
}

// post sends body to url and returns the status and the whole response.
func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// get fetches url and returns the status and the whole response.
func get(c *http.Client, url string) (int, []byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// getJSON decodes a 200 response from url into v.
func getJSON(c *http.Client, url string, v any) error {
	status, b, err := get(c, url)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, status)
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}

// queryBody is the JSON request for a byte-sequence query at eps.
func queryBody(q []byte, eps float64) []byte {
	b, _ := json.Marshal(struct {
		Query string  `json:"query"`
		Eps   float64 `json:"eps"`
	}{string(q), eps}) // marshalling a string and a float cannot fail
	return b
}
