package lint

import (
	"os"
	"path/filepath"
	"testing"
)

// writeModule materializes files into a fresh temp module and returns
// its root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for rel, src := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestRunWantFactsReturnsStore(t *testing.T) {
	root := writeModule(t, map[string]string{
		"internal/features/feat.go": `package features

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`,
	})
	res, err := Run(RunOptions{
		Root:      root,
		Module:    "soteria",
		Patterns:  []string{"./..."},
		WantFacts: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Facts == nil {
		t.Fatal("WantFacts run returned no fact store")
	}
	if got := res.Facts.TaintedBy("soteria/internal/features.Stamp"); got&FactReadsClock == 0 {
		t.Fatalf("Stamp facts = %v, want reads-clock", got)
	}
}
