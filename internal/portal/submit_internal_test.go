package portal

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cn/internal/jobstore"
)

// chunked hides a reader's length, so the request carries none.
type chunked struct{ io.Reader }

// TestReadBodyBounds: a body up to maxBody is read whether or not its length
// was declared, one byte more is refused with the message it always had, and
// a declared length sizes the one buffer the body is read into.
func TestReadBodyBounds(t *testing.T) {
	for _, tc := range []struct {
		name    string
		size    int
		chunked bool
		wantErr string
	}{
		{"small", 4600, false, ""},
		{"small chunked", 4600, true, ""},
		{"exactly maxBody", maxBody, false, ""},
		{"exactly maxBody chunked", maxBody, true, ""},
		{"one over", maxBody + 1, false, "portal: body exceeds 4194304 bytes"},
		{"one over chunked", maxBody + 1, true, "portal: body exceeds 4194304 bytes"},
		{"empty", 0, false, "portal: empty body"},
		{"empty chunked", 0, true, "portal: empty body"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var src io.Reader = bytes.NewReader(bytes.Repeat([]byte("x"), tc.size))
			if tc.chunked {
				src = chunked{src}
			}
			req := httptest.NewRequest(http.MethodPost, "/api/jobs", src)
			if tc.chunked != (req.ContentLength < 0) && tc.size > 0 {
				t.Fatalf("request declares length %d", req.ContentLength)
			}
			body, err := readBody(req)
			switch {
			case tc.wantErr == "" && (err != nil || len(body) != tc.size):
				t.Errorf("readBody = %d bytes, %v; want %d", len(body), err, tc.size)
			case tc.wantErr != "" && (err == nil || err.Error() != tc.wantErr):
				t.Errorf("readBody error = %v, want %q", err, tc.wantErr)
			case tc.wantErr == "" && !tc.chunked && cap(body) != tc.size:
				t.Errorf("a declared length of %d was read into a buffer of %d", tc.size, cap(body))
			}
		})
	}

	// Over the wire: the refusal is a 400 carrying that message.
	req := httptest.NewRequest(http.MethodPost, "/api/xmi2cnx", bytes.NewReader(make([]byte, maxBody+1)))
	rec := httptest.NewRecorder()
	(&Portal{}).handleXMI2CNX(rec, req)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "portal: body exceeds 4194304 bytes") {
		t.Errorf("oversized upload: %d %s", rec.Code, rec.Body)
	}
	// A length declared but not delivered is a read error, not a short body.
	req = httptest.NewRequest(http.MethodPost, "/api/jobs", strings.NewReader("short"))
	req.ContentLength = 50
	if _, err := readBody(req); err == nil || !strings.Contains(err.Error(), "portal: read body") {
		t.Errorf("short body: %v", err)
	}
}

// TestSniffFormat: the format is the root element's, not a substring's.
func TestSniffFormat(t *testing.T) {
	for body, want := range map[string]string{
		`<cn2><client class="C"/></cn2>`:                                   jobstore.FormatCNX,
		"<?xml version=\"1.0\"?>\n<!-- header -->\n<!DOCTYPE cn2>\n<cn2/>": jobstore.FormatCNX,
		`<c:cn2 xmlns:c="urn:cn"/>`:                                        jobstore.FormatCNX,
		`<!-- not <XMI> --><cn2/>`:                                         jobstore.FormatCNX,
		`<XMI xmi.version="1.2"/>`:                                         jobstore.FormatXMI,
		`<!-- converted from <cn2> --><XMI xmi.version="1.2"></XMI>`:       jobstore.FormatXMI,
		`<XMI><XMI.documentation note="was &lt;cn2&gt;"/><cn2/></XMI>`:     jobstore.FormatXMI,
		`<cn2x/>`:                     jobstore.FormatXMI,
		`garbage with <cn2 somewhere`: jobstore.FormatXMI,
		`no markup at all`:            jobstore.FormatXMI,
		``:                            jobstore.FormatXMI,
	} {
		if got := sniffFormat([]byte(body)); got != want {
			t.Errorf("sniffFormat(%q) = %s, want %s", body, got, want)
		}
	}
}

// TestWriteJSONRefusesUnencodable: a value encoding/json refuses answers 500
// with a JSON error, not the intended status with an empty body.
func TestWriteJSONRefusesUnencodable(t *testing.T) {
	p := &Portal{log: slog.New(slog.DiscardHandler)}
	rec := httptest.NewRecorder()
	p.writeJSON(rec, http.StatusOK, map[string]float64{"p50": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["error"] == "" {
		t.Errorf("body %q (%v), want a JSON error", rec.Body.String(), err)
	}
}
