package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLocBucketsCoverInternal checks that every non-test Go file of every
// package under internal/ lands in a named row of the loc table.
func TestLocBucketsCoverInternal(t *testing.T) {
	root := filepath.Join("..", "..")
	seen := map[string]bool{}
	err := filepath.Walk(filepath.Join(root, "internal"), func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() && info.Name() == "testdata" {
			return filepath.SkipDir
		}
		if info.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		seen[filepath.Dir(rel)] = true
		if locBucket(rel) == "" {
			t.Errorf("%s lands in no loc bucket", rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) < 20 {
		t.Fatalf("walked only %d internal packages; is the repository layout intact?", len(seen))
	}
	for _, rel := range []string{"heimdall.go", "cmd/heimdall-bench/main.go", "examples/serving/main.go", "perfbench/main.go"} {
		if locBucket(rel) == "" {
			t.Errorf("%s lands in no loc bucket", rel)
		}
	}
}
