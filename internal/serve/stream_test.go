package serve

import (
	"encoding/json"
	"net/http"
	"testing"
)

// TestStreamRejectsOverflowingShape: a stream whose k makes the sketch's
// default chunk 4(2k+t) wrap an int is a 400 at registration. It used to
// register with a wrapped chunk and run a full solve on every appended
// point — and again for every journaled append on restart.
func TestStreamRejectsOverflowingShape(t *testing.T) {
	a, _ := newAPI(t, Config{})
	for _, body := range []string{
		`{"name":"big","kind":"stream","k":2305843009213693952}`,
		`{"name":"big","kind":"stream","k":1,"t":4611686018427387904}`,
		`{"name":"big","kind":"stream","k":9223372036854775807,"chunk":64}`,
	} {
		var e APIErrorBody
		a.do("POST", "/v1/datasets", json.RawMessage(body), http.StatusBadRequest, &e)
		if e.Code != CodeBadRequest {
			t.Errorf("%s: code %q, want %q", body, e.Code, CodeBadRequest)
		}
	}
	a.do("GET", "/v1/datasets/big", nil, http.StatusNotFound, nil)
}
