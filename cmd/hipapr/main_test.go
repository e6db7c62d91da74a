package main

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"hipa/internal/harness"
)

// TestUsageListsEveryEngine: the package doc's usage line offers exactly
// the -engine values harness.EngineNames accepts, in its order, so the doc
// cannot drift from the registry the flag's help text is built from.
func TestUsageListsEveryEngine(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^//\s+hipapr .*\[-engine ([^\]]+)\]`).FindSubmatch(src)
	if m == nil {
		t.Fatal("main.go: no [-engine ...] in the usage line")
	}
	want := strings.ToLower(strings.Join(harness.EngineNames(), "|"))
	if got := string(m[1]); got != want {
		t.Errorf("usage line lists -engine %s, want %s", got, want)
	}
}
