package ukboot

// This file mounts the root filesystem during boot — the step that
// turns the filesystem micro-libraries (vfscore, ramfs, shfs, 9pfs)
// from isolated micro-benchmarks into live state the serving datapath
// opens, stats and sendfiles against. Config.RootFS picks the backend
// per spec, the way the paper's §6.3 case study picks SHFS over
// vfscore for its web cache: the VFS path is the general standard-path
// configuration, SHFS the specialized one, 9pfs the shared host
// export.

import (
	"fmt"
	"sort"
	"strings"

	"unikraft/internal/ninepfs"
	"unikraft/internal/ramfs"
	"unikraft/internal/shfs"
	"unikraft/internal/sim"
	"unikraft/internal/vfscore"
)

// RootFS backend names accepted by Config.RootFS.
const (
	rootNone  = ""
	RootRamfs = "ramfs"
	RootSHFS  = "shfs"
	Root9pfs  = "9pfs"
)

// RootFSNames lists the mountable root filesystem backends.
func RootFSNames() []string { return []string{RootRamfs, RootSHFS, Root9pfs} }

// ValidRootFS reports whether name is "" or a known backend.
func ValidRootFS(name string) bool {
	switch name {
	case rootNone, RootRamfs, RootSHFS, Root9pfs:
		return true
	}
	return false
}

// SortedFilePaths returns a file map's paths in deterministic order —
// shared by the boot populate step, the snapshot cache key and the
// fileserve experiment.
func SortedFilePaths(files map[string][]byte) []string {
	paths := make([]string, 0, len(files))
	for p := range files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// mountRootFS builds the instance's root filesystem on m, populates it
// from cfg.Files, and attaches it to the VM: VFS+RootFS for
// vfscore-backed backends, SHFS for the specialized volume. Charges
// model in-guest population (ramfs: node creation plus the content
// copy), offline volume attach (shfs: built MiniCache-style, so only a
// per-object table insert) or the virtio-9p mount (9pfs: the host tree
// is populated host-side, for free).
func (c *Context) mountRootFS(vm *VM, m *sim.Machine) error {
	switch c.cfg.RootFS {
	case RootRamfs:
		fs := ramfs.New()
		if err := PopulateRamfs(fs, c.cfg.Files); err != nil {
			return err
		}
		for _, data := range c.cfg.Files {
			m.Pay(sim.CostRamfsPopulate, 1)
			m.Pay(sim.CostCopy, uint64(len(data)))
		}
		return attachVFS(vm, m, fs, c.cfg.PageCachePages)

	case RootSHFS:
		vol := shfs.New(m, 2*len(c.cfg.Files)+16)
		for _, path := range SortedFilePaths(c.cfg.Files) {
			m.Pay(sim.CostSHFSPopulate, 1)
			if err := vol.Add(path, c.cfg.Files[path]); err != nil {
				return fmt.Errorf("shfs %s: %w", path, err)
			}
		}
		vol.Seal()
		vm.SHFS = vol
		return nil

	case Root9pfs:
		host := ramfs.New()
		if err := PopulateRamfs(host, c.cfg.Files); err != nil {
			return err
		}
		m.Spend(sim.LayerBoot, m.CPU.ToCycles(c.cfg.Platform.Mount9pfs))
		fs, err := mount9p(m, host)
		if err != nil {
			return err
		}
		vm.NinePHost = host
		return attachVFS(vm, m, fs, c.cfg.PageCachePages)
	}
	return fmt.Errorf("ukboot: unknown root filesystem %q (have %v)", c.cfg.RootFS, RootFSNames())
}

// PopulateRamfs writes files (path -> content) into fs, creating
// parent directories as needed — host-side population, uncharged (the
// boot step charges separately per backend).
func PopulateRamfs(fs *ramfs.FS, files map[string][]byte) error {
	for _, path := range SortedFilePaths(files) {
		if err := writeTree(fs.Root(), path, files[path]); err != nil {
			return fmt.Errorf("populate %s: %w", path, err)
		}
	}
	return nil
}

// writeTree creates path (absolute, '/'-separated) under root with the
// given content.
func writeTree(root vfscore.Node, path string, data []byte) error {
	if len(path) == 0 || path[0] != '/' {
		return fmt.Errorf("path must be absolute, got %q", path)
	}
	node := root
	rest := path[1:]
	for {
		i := strings.IndexByte(rest, '/')
		if i < 0 {
			break
		}
		name := rest[:i]
		rest = rest[i+1:]
		if name == "" {
			continue
		}
		child, err := node.Lookup(name)
		if err != nil {
			if child, err = node.Create(name, true); err != nil {
				return err
			}
		}
		node = child
	}
	if rest == "" {
		return fmt.Errorf("path %q names no file", path)
	}
	f, err := node.Create(rest, false)
	if err != nil {
		return err
	}
	_, err = f.WriteAt(data, 0)
	return err
}

// attachVFS mounts fs at / on a fresh VFS bound to m and enables the
// page cache when the config asks for one.
func attachVFS(vm *VM, m *sim.Machine, fs vfscore.FS, cachePages int) error {
	v := vfscore.New(m)
	if err := v.Mount("/", fs); err != nil {
		return err
	}
	if cachePages > 0 {
		v.EnablePageCache(cachePages)
	}
	vm.VFS = v
	vm.RootFS = fs
	return nil
}

// mount9p attaches a 9p client (with its own server and transport on m)
// over the shared host tree — per-instance fid tables over one export,
// exactly how multiple guests share a virtio-9p host directory.
func mount9p(m *sim.Machine, host *ramfs.FS) (vfscore.FS, error) {
	srv := ninepfs.NewServer(host)
	tr := ninepfs.NewTransport(m, srv)
	return ninepfs.Mount(tr)
}

// forkRootFS attaches the clone's view of the template's root
// filesystem — the storage half of the COW fork:
//
//   - ramfs: a CowFS over the template tree. Reads (and page-cache
//     fills) share the template's bytes zero-copy; the first write to a
//     file privatizes it into the clone, charging the copy like any
//     other write fault.
//   - shfs: a read-only View of the sealed volume charging the clone's
//     machine. The volume is immutable, so sharing is trivially safe.
//   - 9pfs: a fresh mount (own fids, own transport on the clone's
//     machine) over the template's host export — shared host state by
//     design, as with real virtio-9p.
func (c *Context) forkRootFS(vm *VM, m *sim.Machine, template *VM) error {
	switch c.cfg.RootFS {
	case rootNone:
		return nil
	case RootRamfs:
		cow := vfscore.NewCOW(template.RootFS)
		cow.Pay = m.Pay
		return attachVFS(vm, m, cow, c.cfg.PageCachePages)
	case RootSHFS:
		view, err := template.SHFS.View(m)
		if err != nil {
			return err
		}
		vm.SHFS = view
		return nil
	case Root9pfs:
		m.Spend(sim.LayerBoot, m.CPU.ToCycles(c.cfg.Platform.Mount9pfs))
		fs, err := mount9p(m, template.NinePHost)
		if err != nil {
			return err
		}
		vm.NinePHost = template.NinePHost
		return attachVFS(vm, m, fs, c.cfg.PageCachePages)
	}
	return fmt.Errorf("ukboot: unknown root filesystem %q", c.cfg.RootFS)
}
