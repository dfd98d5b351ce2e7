package unikraft

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// A profile must be indistinguishable from its expanded options: the
// resulting specs compare deeply equal.
func TestProfileParity(t *testing.T) {
	expanded := NewSpec("nginx",
		WithZeroCopy(), WithTxBatch(32), WithIRQCoalesce(8),
		WithSnapshotBoot(), WithInitStages())
	profiled := NewSpec("nginx", ProfileFastPath())
	if !reflect.DeepEqual(expanded, profiled) {
		t.Errorf("ProfileFastPath != expanded options:\n%+v\nvs\n%+v", expanded, profiled)
	}
	named := NewSpec("nginx", Profile("fastpath"))
	if !reflect.DeepEqual(expanded, named) {
		t.Errorf("Profile(\"fastpath\") != expanded options:\n%+v\nvs\n%+v", expanded, named)
	}

	smpExpanded := NewSpec("redis", WithVCPUs(8), WithNetQueues(8))
	smpProfiled := NewSpec("redis", ProfileSMP(8))
	if !reflect.DeepEqual(smpExpanded, smpProfiled) {
		t.Errorf("ProfileSMP(8) != expanded options:\n%+v\nvs\n%+v", smpExpanded, smpProfiled)
	}
	// ProfileSMP caps queues at the virtio-net maximum.
	wide := NewSpec("redis", ProfileSMP(16))
	if wide.VCPUs != 16 || wide.NetQueues != MaxNetQueues {
		t.Errorf("ProfileSMP(16) = vcpus=%d queues=%d, want 16/%d", wide.VCPUs, wide.NetQueues, MaxNetQueues)
	}
}

// Profiles compose like plain options: application order wins.
func TestProfileComposition(t *testing.T) {
	s := NewSpec("nginx", ProfileSMP(8), WithVCPUs(2))
	if s.VCPUs != 2 {
		t.Errorf("later option did not override profile: vcpus=%d", s.VCPUs)
	}
	s = NewSpec("nginx", WithVCPUs(2), ProfileSMP(8))
	if s.VCPUs != 8 {
		t.Errorf("profile did not override earlier option: vcpus=%d", s.VCPUs)
	}
	grouped := WithProfile(ProfileFastPath(), WithVCPUs(4))
	s = NewSpec("nginx", grouped)
	if !s.ZeroCopy || s.VCPUs != 4 {
		t.Errorf("nested profile group misapplied: %+v", s)
	}
}

func TestProfileRegistry(t *testing.T) {
	RegisterProfile("test-tuned", WithTxBatch(16), WithVCPUs(2))
	found := false
	for _, name := range Profiles() {
		if name == "test-tuned" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Profiles() = %v, missing test-tuned", Profiles())
	}
	s := NewSpec("nginx", Profile("test-tuned"))
	if s.TxKickBatch != 16 || s.VCPUs != 2 {
		t.Errorf("registered profile misapplied: %+v", s)
	}
}

// Unknown profile names fail at validation with a precise error, not
// silently and not by panic.
func TestUnknownProfileFailsValidation(t *testing.T) {
	rt := NewRuntime()
	err := rt.Validate(NewSpec("nginx", Profile("no-such-profile")))
	if err == nil {
		t.Fatal("unknown profile validated")
	}
	if !strings.Contains(err.Error(), "no-such-profile") {
		t.Errorf("error does not name the bad profile: %v", err)
	}
	// The spec is still buildable once the bad option is absent.
	if err := rt.Validate(NewSpec("nginx", Profile("fastpath"))); err != nil {
		t.Errorf("known profile failed validation: %v", err)
	}
}

func TestSMPSpecValidation(t *testing.T) {
	rt := NewRuntime()
	for _, tc := range []struct {
		opt Option
		ok  bool
	}{
		{WithVCPUs(0), true},
		{WithVCPUs(1), true},
		{WithVCPUs(MaxVCPUs), true},
		{WithVCPUs(-1), false},
		{WithVCPUs(MaxVCPUs + 1), false},
		{WithNetQueues(MaxNetQueues), true},
		{WithNetQueues(MaxNetQueues + 1), false},
		{WithNetQueues(-2), false},
	} {
		err := rt.Validate(NewSpec("nginx", tc.opt))
		if tc.ok && err != nil {
			t.Errorf("valid SMP spec rejected: %v", err)
		}
		if !tc.ok && err == nil {
			t.Errorf("invalid SMP spec accepted (%+v)", NewSpec("nginx", tc.opt))
		}
	}
}

func TestSpecStringSMP(t *testing.T) {
	s := NewSpec("nginx", WithVCPUs(4), WithNetQueues(2))
	str := s.String()
	if !strings.Contains(str, "vcpus=4") || !strings.Contains(str, "queues=2") {
		t.Errorf("String() = %q, missing SMP fields", str)
	}
	if strings.Contains(NewSpec("nginx").String(), "vcpus") {
		t.Errorf("default spec renders vcpus: %q", NewSpec("nginx").String())
	}
}

// WithVCPUs(1)/WithNetQueues(1) must be byte-identical to the default
// single-core spec: same boot report, same serve report — the shards=1
// ≡ Serve contract extended down into the guest.
func TestSingleCoreSMPIdentity(t *testing.T) {
	rt := NewRuntime()
	base := NewSpec("nginx", WithVMM("firecracker"))
	smp1 := base.With(WithVCPUs(1), WithNetQueues(1))

	bvm, err := rt.Boot(base)
	if err != nil {
		t.Fatal(err)
	}
	defer bvm.Close()
	svm, err := rt.Boot(smp1)
	if err != nil {
		t.Fatal(err)
	}
	defer svm.Close()
	if !reflect.DeepEqual(bvm.Report, svm.Report) {
		t.Errorf("vcpus=1 boot report diverged:\n%+v\nvs\n%+v", bvm.Report, svm.Report)
	}

	mkTrace := func() Workload {
		reqs := make([]Request, 300)
		for i := range reqs {
			reqs[i] = Request{Arrival: time.Duration(i+1) * time.Millisecond, Bytes: 256}
		}
		return TraceWorkload(reqs)
	}
	serve := func(s Spec) *ServeReport {
		t.Helper()
		// Pin the machine seed inputs: the pool seeds from s.String(),
		// which intentionally differs once vcpus>1 — but vcpus=1 renders
		// identically to the default, which is the point of this test.
		p, err := rt.NewPool(s, WithPoolWarm(4), DisablePoolAutoscale())
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		rep, err := p.Serve(mkTrace())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	if a, b := serve(base), serve(smp1); !reflect.DeepEqual(a, b) {
		t.Errorf("vcpus=1 serve report diverged:\n%v\nvs\n%v", a, b)
	}
}

// SMP boots pay for what they configure: AP bringup per extra core,
// queue setup per extra queue pair — and nothing at the defaults.
func TestSMPBootCharges(t *testing.T) {
	rt := NewRuntime()
	boot := func(opts ...Option) time.Duration {
		t.Helper()
		vm, err := rt.Boot(NewSpec("nginx", append([]Option{WithVMM("firecracker")}, opts...)...))
		if err != nil {
			t.Fatal(err)
		}
		defer vm.Close()
		return vm.Report.Total()
	}
	base := boot()
	smp := boot(WithVCPUs(4))
	if smp <= base {
		t.Errorf("4-vCPU boot (%v) not dearer than 1-vCPU (%v)", smp, base)
	}
	mq := boot(WithNetQueues(4))
	if mq <= base {
		t.Errorf("4-queue boot (%v) not dearer than 1-queue (%v)", mq, base)
	}
	both := boot(WithVCPUs(4), WithNetQueues(4))
	if both <= smp || both <= mq {
		t.Errorf("combined SMP boot (%v) not dearer than its parts (%v, %v)", both, smp, mq)
	}
}
