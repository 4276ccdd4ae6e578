package analysis

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestFuzzListNamesEveryTarget holds `make fuzz` to every fuzz target in
// the repository, each under its own package, and the nightly workflow to
// that same list: a Fuzz function missing from the Makefile is never
// fuzzed, only replayed from its seeds.
func TestFuzzListNamesEveryTarget(t *testing.T) {
	root := moduleRoot(t)
	declared := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
	var want []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		dir, _ := filepath.Rel(root, filepath.Dir(path))
		for _, m := range declared.FindAllSubmatch(src, -1) {
			want = append(want, "./"+filepath.ToSlash(dir)+"/ "+string(m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	makefile, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	listed := regexp.MustCompile(`-fuzz='\^(Fuzz\w+)\$\$' -fuzztime=\$\(FUZZTIME\) (\./\S+)`)
	for _, m := range listed.FindAllStringSubmatch(string(makefile), -1) {
		got = append(got, m[2]+" "+m[1])
	}
	sort.Strings(want)
	sort.Strings(got)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("make fuzz runs\n\t%s\nthe repository declares\n\t%s", strings.Join(got, "\n\t"), strings.Join(want, "\n\t"))
	}
	nightly, err := os.ReadFile(filepath.Join(root, ".github", "workflows", "nightly.yml"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(nightly), "make fuzz FUZZTIME=") || strings.Contains(string(nightly), "go test -fuzz") {
		t.Error("the nightly workflow does not run the list of make fuzz")
	}
}
