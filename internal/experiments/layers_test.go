package experiments

import (
	"testing"

	"unikraft/internal/closedloop"
)

// TestLayersExact: the layers split accounts for every busy cycle of the
// runs it splits. Its nginx row's busy total is Hz over fig13's nginx
// rate and its Redis GET row's is Hz over fig12's GET rate, to the
// printed hundredth of a cycle — which holds only when the cycles are
// divided by the requests Run completed (Redis GET asks for 20,000 and
// completes 20,160), not by the requests asked for.
func TestLayersExact(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput run")
	}
	t.Parallel()
	env := DefaultEnv()
	hz := float64(env.NewMachine().CPU.Hz)
	nginx, err := nginxRate(env, oneCore(closedloop.Config{}, "tlsf"), paperConns, fig13Reqs)
	if err != nil {
		t.Fatal(err)
	}
	get, err := redisRate(env, oneCore(closedloop.Config{}, "mimalloc"), false, paperConns, fig12Reqs)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"nginx (fig13)": f2(hz / nginx.Rate), "redis-get (fig12)": f2(hz / get.Rate)}
	res := result(t, "layers")
	for _, row := range res.Rows {
		if w, ok := want[row[0]]; ok {
			if got := row[len(row)-1]; got != w {
				t.Errorf("%s: busy %s cycles/request, want Hz/rate = %s", row[0], got, w)
			}
			delete(want, row[0])
		}
	}
	if len(want) > 0 {
		t.Errorf("layers has no rows for %v", want)
	}
}
