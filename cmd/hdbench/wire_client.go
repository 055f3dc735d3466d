package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/serve/wire"
)

// Wire formats the live-HTTP drivers (-loadgen/-driftgen/-chaos with
// -http) can speak to a disthd-serve or disthd-cluster target, selected
// with -wire.
const (
	wireJSON   = "json"
	wireBinary = "binary"
	// wireBinaryF32 is the internal value -wire binary -f32 resolves to:
	// request matrices ride TypeMatrixF32 frames (half the bytes of f64;
	// free accuracy-wise for the 1-bit tier, whose queries are
	// sign-quantized anyway). Responses and learn frames are unchanged.
	wireBinaryF32 = "binary+f32"
)

// errThrottled marks a 429 from a registry target's admission control —
// backpressure to retry, not a failure. Concrete 429s are returned as a
// *throttledError (which matches errThrottled under errors.Is) so retry
// loops can honor the server's Retry-After.
var errThrottled = errors.New("throttled (429): registry pool exhausted")

// throttledError is a 429 with the server's Retry-After parsed out.
type throttledError struct {
	retryAfter time.Duration // 0 when the header was absent or unparsable
}

func (e *throttledError) Error() string        { return errThrottled.Error() }
func (e *throttledError) Is(target error) bool { return target == errThrottled }

// newThrottledError captures resp's Retry-After (delta-seconds form; the
// HTTP-date form is not worth parsing for a benchmark client).
func newThrottledError(resp *http.Response) error {
	var d time.Duration
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs >= 0 {
			d = time.Duration(secs) * time.Second
		}
	}
	return &throttledError{retryAfter: d}
}

// retryAfter extracts the server-requested backoff from a throttled
// error, falling back when the server did not name one.
func retryAfter(err error, fallback time.Duration) time.Duration {
	var te *throttledError
	if errors.As(err, &te) && te.retryAfter > 0 {
		return te.retryAfter
	}
	return fallback
}

// checkWire validates the -wire flag value.
func checkWire(s string) error {
	if s != wireJSON && s != wireBinary {
		return fmt.Errorf("bad -wire %q: want %s or %s", s, wireJSON, wireBinary)
	}
	return nil
}

// encodeBatch marshals rows as one /predict_batch request body in the
// given wire format, returning the payload and its content type.
func encodeBatch(wireFmt string, rows [][]float64) ([]byte, string, error) {
	switch wireFmt {
	case wireBinary:
		payload, err := wire.AppendMatrixF64(nil, rows, len(rows[0]))
		return payload, wire.ContentType, err
	case wireBinaryF32:
		payload, err := wire.AppendMatrixF32(nil, rows, len(rows[0]))
		return payload, wire.ContentType, err
	}
	payload, err := json.Marshal(map[string][][]float64{"x": rows})
	return payload, "application/json", err
}

// decodeBatch parses a /predict_batch response body in the format the
// server mirrored back.
func decodeBatch(contentType string, body []byte) ([]int, error) {
	if contentType == wire.ContentType {
		d := wire.NewDecoder(bytes.NewReader(body))
		typ, err := d.Next()
		if err != nil {
			return nil, err
		}
		if typ != wire.TypeClasses {
			return nil, fmt.Errorf("response frame %v, want classes", typ)
		}
		n, err := d.ClassCount()
		if err != nil {
			return nil, err
		}
		classes := make([]int, n)
		return classes, d.Classes(classes)
	}
	var out struct {
		Classes []int `json:"classes"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, err
	}
	return out.Classes, nil
}

// baseURL normalizes a -http target ("host:port" or a full URL) into a
// base URL without a trailing slash.
func baseURL(target string) string {
	if !strings.Contains(target, "://") {
		target = "http://" + target
	}
	return strings.TrimRight(target, "/")
}

// postBatch runs one /predict_batch round trip against base in wireFmt
// and returns the classes.
func postBatch(hc *http.Client, base, wireFmt string, rows [][]float64) ([]int, error) {
	payload, ct, err := encodeBatch(wireFmt, rows)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Post(base+"/predict_batch", ct, bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		return nil, newThrottledError(resp)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST /predict_batch: %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return decodeBatch(resp.Header.Get("Content-Type"), body)
}

// postLearn feeds one labeled sample through POST /learn in wireFmt.
func postLearn(hc *http.Client, base, wireFmt string, x []float64, label int) error {
	var payload []byte
	ct := "application/json"
	if wireFmt != wireJSON {
		payload = wire.AppendLearn(nil, x, label)
		ct = wire.ContentType
	} else {
		var err error
		if payload, err = json.Marshal(map[string]any{"x": x, "label": label}); err != nil {
			return err
		}
	}
	resp, err := hc.Post(base+"/learn", ct, bytes.NewReader(payload))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		io.Copy(io.Discard, resp.Body)
		return newThrottledError(resp)
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("POST /learn: %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}
