package ukalloc

import (
	"sort"
	"testing"
)

func TestProviderBackendMapping(t *testing.T) {
	cases := map[string]string{
		"ukallocbuddy": "buddy",
		"ukalloctlsf":  "tlsf",
		"ukalloctiny":  "tinyalloc",
		"ukallocmim":   "mimalloc",
		"ukallocboot":  "bootalloc",
	}
	for provider, backend := range cases {
		got, ok := providerBackends[provider]
		if !ok || got != backend {
			t.Errorf("providerBackends[%s] = %q, %v; want %q", provider, got, ok, backend)
		}
		p, ok := ProviderForBackend(backend)
		if !ok || p != provider {
			t.Errorf("ProviderForBackend(%s) = %q, %v; want %q", backend, p, ok, provider)
		}
	}
	if _, ok := providerBackends["ukallocnope"]; ok {
		t.Error("unknown provider mapped")
	}
	if _, ok := ProviderForBackend("jemalloc"); ok {
		t.Error("unknown backend mapped")
	}
	if names := providerNames(); !sort.StringsAreSorted(names) || len(names) != len(cases) {
		t.Errorf("providerNames() = %v", names)
	}
}

func TestResolveBackend(t *testing.T) {
	// Provider names resolve without the backend being registered.
	if b, err := ResolveBackend("ukallocmim"); err != nil || b != "mimalloc" {
		t.Errorf("ResolveBackend(ukallocmim) = %q, %v", b, err)
	}
	// Registered backend names resolve to themselves ("tlsf" is
	// registered by this test binary's setup).
	if b, err := ResolveBackend("tlsf"); err != nil || b != "tlsf" {
		t.Errorf("ResolveBackend(tlsf) = %q, %v", b, err)
	}
	// Garbage errors with the valid choices listed.
	if _, err := ResolveBackend("jemalloc"); err == nil {
		t.Error("garbage allocator resolved")
	}
}
