package registry_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"soteria/internal/registry"
)

// adminFixture builds a registry with p1 loaded+active and returns the
// admin handler plus the two version IDs and p2's saved bytes.
func adminFixture(t *testing.T) (h http.Handler, r *registry.Registry, id1, id2 string, saved2 []byte) {
	t.Helper()
	p1, p2, _, _ := pipelines(t)
	r = registry.New(registry.Config{})
	t.Cleanup(r.Close)
	id1, err := r.Load(p1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Activate(id1); err != nil {
		t.Fatal(err)
	}
	id2, err = registry.VersionID(p2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p2.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return r.AdminHandler(), r, id1, id2, buf.Bytes()
}

func do(t *testing.T, h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

func TestAdminAPI(t *testing.T) {
	h, r, id1, id2, saved2 := adminFixture(t)

	// POST /models loads the candidate.
	rec := do(t, h, "POST", "/models", saved2)
	if rec.Code != http.StatusCreated {
		t.Fatalf("POST /models = %d: %s", rec.Code, rec.Body)
	}
	var loaded map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &loaded); err != nil {
		t.Fatal(err)
	}
	if loaded["id"] != id2 {
		t.Fatalf("loaded id %q, want %q", loaded["id"], id2)
	}

	// GET /models lists both, active flagged.
	rec = do(t, h, "GET", "/models", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /models = %d", rec.Code)
	}
	var list struct {
		Models []registry.ModelInfo  `json:"models"`
		Shadow *registry.ShadowStats `json:"shadow"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Models) != 2 || !list.Models[0].Active || list.Models[0].ID != id1 {
		t.Fatalf("list = %+v, want [%q active, %q]", list.Models, id1, id2)
	}
	if list.Shadow != nil {
		t.Fatal("no shadow session yet, but stats present")
	}

	// Shadow the candidate, then observe it in the listing.
	rec = do(t, h, "POST", "/models/"+id2+"/shadow?every=3", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST shadow = %d: %s", rec.Code, rec.Body)
	}
	rec = do(t, h, "GET", "/models", nil)
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if list.Shadow == nil || list.Shadow.ID != id2 || list.Shadow.Every != 3 {
		t.Fatalf("shadow stats = %+v, want candidate %q every=3", list.Shadow, id2)
	}

	// Cutover, then verify state flipped.
	rec = do(t, h, "POST", "/models/"+id2+"/activate", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST activate = %d: %s", rec.Code, rec.Body)
	}
	if r.Active() != id2 {
		t.Fatalf("active = %q after cutover, want %q", r.Active(), id2)
	}

	// every=0 after cutover is a no-op disable (session already ended).
	rec = do(t, h, "POST", "/models/"+id1+"/shadow?every=0", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST shadow every=0 = %d: %s", rec.Code, rec.Body)
	}
}

func TestAdminAPIErrors(t *testing.T) {
	h, _, id1, _, saved2 := adminFixture(t)

	if rec := do(t, h, "POST", "/models/feedfacefeedface/activate", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("activate unknown = %d, want 404", rec.Code)
	}
	if rec := do(t, h, "POST", "/models/feedfacefeedface/shadow", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("shadow unknown = %d, want 404", rec.Code)
	}
	if rec := do(t, h, "POST", "/models/"+id1+"/shadow", nil); rec.Code != http.StatusConflict {
		t.Fatalf("shadow active = %d, want 409", rec.Code)
	}
	if rec := do(t, h, "POST", "/models/"+id1+"/shadow?every=-1", nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("shadow every=-1 = %d, want 400", rec.Code)
	}
	if rec := do(t, h, "POST", "/models", []byte("not a model")); rec.Code != http.StatusBadRequest {
		t.Fatalf("POST junk model = %d, want 400", rec.Code)
	}
	// A model that decodes but cannot serve (an IDF weight missing)
	// is refused, not registered to panic on its first request.
	var m map[string]any
	if err := json.Unmarshal(saved2, &m); err != nil {
		t.Fatal(err)
	}
	vocab := m["dblVocab"].(map[string]any)
	idf := vocab["idf"].([]any)
	vocab["idf"] = idf[:len(idf)-1]
	short, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if rec := do(t, h, "POST", "/models", short); rec.Code != http.StatusBadRequest {
		t.Fatalf("POST model with a short IDF list = %d, want 400", rec.Code)
	}
	// A model of the retired format version 1 is refused; the caller
	// must retrain it.
	var v1 map[string]any
	if err := json.Unmarshal(saved2, &v1); err != nil {
		t.Fatal(err)
	}
	v1["version"] = 1
	old, err := json.Marshal(v1)
	if err != nil {
		t.Fatal(err)
	}
	if rec := do(t, h, "POST", "/models", old); rec.Code != http.StatusBadRequest {
		t.Fatalf("POST version-1 model = %d, want 400", rec.Code)
	}
	if rec := do(t, h, "GET", "/models/"+id1+"/activate", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET activate = %d, want 405", rec.Code)
	}
}
