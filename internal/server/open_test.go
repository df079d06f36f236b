package server

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"outcore/internal/layout"
	"outcore/internal/ooc"
)

// TestOpenRefusalLeavesDirectory: a kept directory whose array files
// this build cannot serve — only an earlier build's striped sub-files,
// or a file written under other dims — is refused by Open, and the
// refusal writes nothing: the directory keeps its names, sizes and
// bytes, and holds no lock and no WAL log afterwards. The refused array
// comes second in the catalog, so a check that ran only when its own
// array was created would come after the first array's creation had
// opened the log.
func TestOpenRefusalLeavesDirectory(t *testing.T) {
	const n = 8
	fill := func(elems int) []byte { return bytes.Repeat([]byte{7, 0, 0, 0, 0, 0, 0, 0}, elems) }
	for _, c := range []struct {
		name  string
		files map[string][]byte
		want  string
	}{
		{"striped leftover", map[string][]byte{
			"B.dat": fill(n * n), "A.s0.dat": fill(n * n / 2), "A.s1.dat": fill(n * n / 2),
		}, "A.s0.dat"},
		{"other dims", map[string][]byte{
			"B.dat": fill(n * n), "A.dat": fill(n * n / 2),
		}, "reopen it with the dims that wrote it"},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			for name, b := range c.files {
				if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			catalog := []Array{
				{Name: "B", Dims: []int64{n, n}, Layout: layout.RowMajor(n, n)},
				{Name: "A", Dims: []int64{n, n}, Layout: layout.RowMajor(n, n)},
			}
			d := ooc.NewDisk(0).Dir(dir).KeepExisting().EnableWAL(ooc.WALOptions{CapWords: 1 << 12})
			if _, err := Open(d, catalog, ooc.EngineOptions{}, Config{}); err == nil {
				t.Fatal("Open accepted the directory")
			} else if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("refusal does not name %q: %v", c.want, err)
			}
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			for _, e := range ents {
				names = append(names, e.Name())
				want, ok := c.files[e.Name()]
				if !ok {
					continue
				}
				if got, err := os.ReadFile(filepath.Join(dir, e.Name())); err != nil || !bytes.Equal(got, want) {
					t.Errorf("refusal altered %s (read error %v)", e.Name(), err)
				}
			}
			var want []string
			for name := range c.files {
				want = append(want, name)
			}
			sort.Strings(want)
			if !slices.Equal(names, want) { // ReadDir sorts by name
				t.Errorf("directory after the refusal holds %v, want %v", names, want)
			}
		})
	}
}
