package ukplat

import (
	"testing"
	"time"
)

func TestCatalog(t *testing.T) {
	if len(all()) != 6 {
		t.Fatalf("platforms = %d", len(all()))
	}
	// Fig 10's VMM ordering: firecracker < solo5 < microvm < qemu < xen.
	order := []Platform{KVMFirecracker, Solo5, KVMQemuMicroVM, KVMQemu, Xen}
	for i := 1; i < len(order); i++ {
		if order[i].VMMSetup <= order[i-1].VMMSetup {
			t.Errorf("%s (%v) not slower than %s (%v)",
				order[i].VMM, order[i].VMMSetup, order[i-1].VMM, order[i-1].VMMSetup)
		}
	}
	// §5.2: Xen's 9pfs mount is ~9x KVM's.
	if Xen.Mount9pfs != 2700*time.Microsecond || KVMQemu.Mount9pfs != 300*time.Microsecond {
		t.Errorf("9pfs costs: xen=%v kvm=%v", Xen.Mount9pfs, KVMQemu.Mount9pfs)
	}
	// §3: hello is 200KB on KVM, 40KB on Xen.
	if KVMQemu.HelloImageBytes <= Xen.HelloImageBytes {
		t.Error("xen hello image not smaller")
	}
}

func TestByVMM(t *testing.T) {
	p, ok := ByVMM("firecracker")
	if !ok || p.Name != "kvm" {
		t.Fatalf("ByVMM(firecracker) = %+v, %v", p, ok)
	}
	if _, ok := ByVMM("vmware"); ok {
		t.Fatal("unknown VMM found")
	}
}

func TestByNameAndListings(t *testing.T) {
	p, ok := ByName("kvm")
	if !ok || p.VMM != "qemu" {
		t.Fatalf("ByName(kvm) = %+v, %v; want the stock QEMU entry", p, ok)
	}
	if _, ok := ByName("hyperv"); ok {
		t.Fatal("unknown platform found")
	}
	names := Names()
	want := []string{"kvm", "linuxu", "solo5", "xen"}
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", names, want)
		}
	}
	if vmms := VMMs(); len(vmms) != len(all()) {
		t.Errorf("VMMs() = %v", vmms)
	}
}

func TestLayout(t *testing.T) {
	regions := Layout(1<<20 /*image*/, 64<<20 /*total*/, 64<<10 /*stack*/)
	if len(regions) != 3 {
		t.Fatalf("regions = %d", len(regions))
	}
	var kernel, heap, stack MemRegion
	for _, r := range regions {
		switch r.Kind {
		case RegionKernel:
			kernel = r
		case RegionHeap:
			heap = r
		case RegionStack:
			stack = r
		}
	}
	if kernel.Base != 1<<20 {
		t.Errorf("kernel at %#x, want 1MiB", kernel.Base)
	}
	if heap.Base != kernel.Base+uint64(kernel.Bytes) {
		t.Error("heap not after kernel")
	}
	if stack.Base != heap.Base+uint64(heap.Bytes) {
		t.Error("stack not after heap")
	}
	total := kernel.Bytes + heap.Bytes + stack.Bytes + 1<<20
	if total != 64<<20 {
		t.Errorf("layout covers %d of %d", total, 64<<20)
	}
	// Degenerate: tiny VM -> zero-size heap, not negative.
	small := Layout(8<<20, 4<<20, 64<<10)
	for _, r := range small {
		if r.Kind == RegionHeap && r.Bytes != 0 {
			t.Errorf("heap bytes = %d in undersized VM", r.Bytes)
		}
	}
}
