package service

import (
	"bytes"
	"testing"
)

// FuzzRequestDecode feeds raw request bodies through the path every POST
// /api/v1/run takes before any work starts: decodeRequest, then address
// (which runs resolve). Each body must end in an error or in a request
// whose cache key is the same when the same bytes are decoded again, so
// no body can crash a daemon or shard one request to two keys.
func FuzzRequestDecode(f *testing.F) {
	f.Add([]byte(`{"exp":"E1","quick":true}`))
	f.Add([]byte(`{"exp":"E8","seed":7,"net":"ethernet","validate":true,"storage":{"aggregate_gbps":2,"per_writer_gbps":1}}`))
	f.Add([]byte(`{"exp":"E1","timeout_sec":-1}`))
	f.Add([]byte(`{"exp":"E1","resume_b64":"AAAA"}`))
	f.Add([]byte(scenarioBody(resumeScenario)))
	f.Add([]byte(`{"scenario":{},"exp":"E1"}`))
	f.Add([]byte(`{"exp":"E1"} {}`))
	f.Add([]byte(`{"exp":"E1","unknown_knob":1}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeRequest(bytes.NewReader(body))
		if err != nil {
			return
		}
		_, _, key, err := req.address("fuzz")
		if err != nil {
			return
		}
		if key == "" {
			t.Fatalf("body %q addressed to an empty key", body)
		}
		again, err := decodeRequest(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("body %q decoded once, then failed: %v", body, err)
		}
		_, _, key2, err := again.address("fuzz")
		if err != nil {
			t.Fatalf("body %q addressed once, then failed: %v", body, err)
		}
		if key2 != key {
			t.Fatalf("body %q addressed to %s, then to %s", body, key, key2)
		}
	})
}
