//go:build linux && !race

package ukalloc

// LiveMappings reports the arena mappings not yet unmapped.
func LiveMappings() int64 { return mappings.Load() }
