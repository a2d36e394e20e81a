package vrdann_test

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// TestServingCoreImportFence keeps the reproduction assets (optical flow,
// the FAVOS/DFF baselines, the hardware simulator, the experiments harness)
// out of the serving core's transitive imports, so the serving core's real
// size stays visible and a served frame can never depend on them.
func TestServingCoreImportFence(t *testing.T) {
	core := []string{"core", "segment", "nn", "tensor", "serve", "contentcache", "qos", "shard"}
	fenced := func(pkg string) bool {
		return pkg == "flow" || pkg == "baseline" || pkg == "experiments" || pkg == "sim" || strings.HasPrefix(pkg, "sim/")
	}
	// imports lists the module-internal packages (relative to internal/)
	// that one package's non-test files import.
	imports := func(pkg string) []string {
		bp, err := build.ImportDir(filepath.Join("internal", pkg), 0)
		if err != nil {
			t.Fatalf("package internal/%s: %v", pkg, err)
		}
		var out []string
		for _, path := range bp.Imports {
			if rel, ok := strings.CutPrefix(path, "vrdann/internal/"); ok {
				out = append(out, rel)
			}
		}
		return out
	}
	for _, root := range core {
		via := map[string]string{root: ""}
		queue := []string{root}
		for len(queue) > 0 {
			pkg := queue[0]
			queue = queue[1:]
			for _, dep := range imports(pkg) {
				if _, seen := via[dep]; seen {
					continue
				}
				via[dep] = pkg
				if fenced(dep) {
					chain := dep
					for p := pkg; p != ""; p = via[p] {
						chain = p + " -> " + chain
					}
					t.Errorf("serving-core package %s reaches fenced package: %s", root, chain)
				}
				queue = append(queue, dep)
			}
		}
	}
}
