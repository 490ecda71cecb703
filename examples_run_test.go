package genie_test

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestExamplesRun builds every program under examples/ in one go build
// and runs each: it must exit 0 within 10 s and print its closing claim.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs seven programs")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go toolchain on PATH")
	}
	bin := t.TempDir()
	if out, err := exec.Command(goBin, "build", "-o", bin, "./examples/...").CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	want := map[string]string{
		"faulttolerance": "identical to a failure-free run",
		"llmserving":     "all modes produced identical tokens",
		"multitenant":    "HOW: cross-tenant decode batching",
		"quickstart":     "captured 4-node SRG",
		"recommender":    "tiering plan (hot 10% on-device)",
		"streaming":      "the rest was never computed",
		"visionpipeline": "real 2-backend execution",
	}
	if built, err := os.ReadDir(bin); err != nil || len(built) != len(want) {
		t.Fatalf("built %d programs (%v), want the %d listed here", len(built), err, len(want))
	}
	for name, line := range want {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			out, err := exec.CommandContext(ctx, filepath.Join(bin, name)).CombinedOutput()
			if err != nil {
				t.Fatalf("%s: %v\n%s", name, err, out)
			}
			if !strings.Contains(string(out), line) {
				t.Errorf("%s printed no %q line:\n%s", name, line, out)
			}
		})
	}
}
