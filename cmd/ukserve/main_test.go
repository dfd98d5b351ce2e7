package main

import (
	"strings"
	"testing"
)

// TestCheckClusterOnly: every flag only the cluster branch reads is
// rejected on a single-host run with an error naming it and -hosts, and
// accepted as soon as there is a cluster (or the flag is unset).
func TestCheckClusterOnly(t *testing.T) {
	names := []string{"admission", "retry-throttle", "chaos", "rejoin",
		"retry-budget", "active", "no-handoff"}
	flags := func(set string) []clusterFlag {
		out := make([]clusterFlag, len(names))
		for i, n := range names {
			out[i] = clusterFlag{n, n == set}
		}
		return out
	}
	for _, hosts := range []int{1, 2, 8} {
		if err := checkClusterOnly(hosts, flags("")); err != nil {
			t.Errorf("hosts=%d, no cluster flag set: %v", hosts, err)
		}
		for _, n := range names {
			err := checkClusterOnly(hosts, flags(n))
			switch {
			case hosts > 1 && err != nil:
				t.Errorf("hosts=%d -%s rejected: %v", hosts, n, err)
			case hosts == 1 && err == nil:
				t.Errorf("hosts=1 -%s accepted", n)
			case hosts == 1 && (!strings.Contains(err.Error(), "-"+n+" ") ||
				!strings.Contains(err.Error(), "-hosts") || strings.Contains(err.Error(), "\n")):
				t.Errorf("hosts=1 -%s: error %q must be one line naming the flag and -hosts", n, err)
			}
		}
	}
}
