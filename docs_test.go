package unikraft

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docFiles are the documents whose relative links TestDocRelativeLinks
// keeps honest.
var docFiles = []string{"README.md", "ARCHITECTURE.md", "EXPERIMENTS.md"}

var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// TestDocRelativeLinks fails on any relative markdown link whose target
// does not exist in the repository — the docs analog of the build
// breaking on a dangling import.
func TestDocRelativeLinks(t *testing.T) {
	for _, doc := range docFiles {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("%s: %v (every file in docFiles must exist)", doc, err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(raw), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") {
				continue
			}
			// Drop a fragment; a bare fragment links within the file.
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			path := filepath.Join(filepath.Dir(doc), target)
			if _, err := os.Stat(path); err != nil {
				t.Errorf("%s: broken relative link %q (%v)", doc, m[1], err)
			}
		}
	}
}
