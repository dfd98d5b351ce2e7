package sim

import "time"

// CostID names one row of the cost table: one price, written once.
type CostID uint8

// The rows of the cost table, grouped by the layer that pays them.
const (
	CostFunctionCall CostID = iota
	CostUnikraftSyscall
	CostLinuxSyscall
	CostLinuxSyscallNoMitig
	CostCopy
	CostCopySetup
	CostVMExit
	CostStaticPT
	CostDynamicPT
	CostDynamicPTTable
	CostNoPT
	CostSMPAPInit
	CostNetQueueInit
	CostRamfsPopulate
	CostSHFSPopulate
	CostSnapMarkTable
	CostForkRoot
	CostCOWFault
	CostCOWTableCopy
	CostHeapAttach
	CostSchedResume
	CostBootallocInit
	CostBootallocMalloc
	CostBootallocFree
	CostBuddyInitFrame
	CostBuddyMalloc
	CostBuddyOrderScan
	CostBuddySplit
	CostBuddyFree
	CostBuddyMerge
	CostBuddyMemalign
	CostMimallocInit
	CostMimallocInitPage
	CostMimallocFast
	CostMimallocPage
	CostMimallocFail
	CostMimallocLarge
	CostMimallocLargeFail
	CostMimallocFree
	CostMimallocRetire
	CostMimallocFreeLarge
	CostTinyallocInitDesc
	CostTinyallocMalloc
	CostTinyallocScan
	CostTinyallocSplit
	CostTinyallocCarve
	CostTinyallocFree
	CostTinyallocUsedScan
	CostTinyallocCompact
	CostTinyallocMerge
	CostTLSFInit
	CostTLSFMalloc
	CostTLSFFree
	CostTLSFGrow
	CostTLSFMemalign
	CostVirtioTx
	CostVirtioRx
	CostPktGen
	CostDPDKPktGen
	CostEthRx
	CostEthTx
	CostARP
	CostIPRx
	CostIPTx
	CostICMP
	CostUDPRx
	CostUDPTx
	CostTCPRx
	CostTCPTx
	CostSockQueue
	CostSockQueueZC
	CostLwIPSocket
	CostLinuxStackPacket
	CostRouteConnTrack
	CostRouteRR
	CostRouteScan
	CostRouteHash
	CostRouteProbe
	CostRouteReject
	CostRouteExpire
	CostVFSPath
	CostVFSComponent
	CostVFSLock
	CostVFSVnode
	CostVFSFD
	CostVFSMiss
	CostVFSRW
	CostSendfile
	CostPageHit
	CostPageInsert
	CostPageShare
	CostSendfilePage
	CostCowLookup
	CostCowCopyUp
	CostRamfsLookup
	CostSHFSRequest
	CostSHFSHash
	CostSHFSProbe
	CostSHFSCompare
	CostSHFSRead
	Cost9PLookup
	Cost9PRPC
	Cost9PByte
	CostLinux9PRPC
	CostLinux9PByte
	CostUDPKVRaw
	CostNginxRequest
	CostRedisCommand
	CostSQLiteInit
	CostSQLiteStatement
	numCosts
)

// cost is one row: n units cost n*cycles/per cycles (3.6 GHz), rounded down.
type cost struct {
	cycles, per  uint64
	unit, source string
}

var costs = [numCosts]cost{
	CostFunctionCall:        {4, 1, "call", "Table 1: a no-op function call, 1.11 ns"},
	CostUnikraftSyscall:     {84, 1, "call", "Table 1: a syscall translated by the shim, 23.33 ns"},
	CostLinuxSyscall:        {222, 1, "call", "Table 1: a Linux/KVM syscall with default mitigations, 61.67 ns"},
	CostLinuxSyscallNoMitig: {154, 1, "call", "Table 1: a Linux/KVM syscall with mitigations off, 42.78 ns"},
	CostCopy:                {1, 16, "byte", "engineering estimate: 16 bytes/cycle with wide loads"},
	CostCopySetup:           {1, 1, "copy", "engineering estimate: the fixed cycle of a non-empty copy in the pool's service model"},
	CostVMExit:              {4320, 1, "exit", "engineering estimate: a KVM exit and re-entry (virtqueue kick), 1.2 µs; literature 1-2 µs"},
	CostStaticPT:            {104_400, 1, "boot", "Fig 21: enabling the pre-built static page table, 29 µs"},
	CostDynamicPT:           {160_000, 1, "boot", "Fig 21: dynamic-path setup (walk, CR3 load, TLB flush), ~44 µs; 32 MB lands at 46 µs"},
	CostDynamicPTTable:      {151, 1, "table", "Fig 21: allocate and fill one 512-entry table; the 1-3 GB slope is ~21.5 µs/GB"},
	CostNoPT:                {18_000, 1, "boot", "engineering estimate: protected-mode setup without paging"},
	CostSMPAPInit:           {90_000, 1, "vCPU", "engineering estimate: SIPI trampoline, per-CPU areas and idle thread per extra vCPU, 25 µs"},
	CostNetQueueInit:        {135_000, 1, "queue", "engineering estimate: vring, MSI-X vector and ioeventfd per extra queue pair, 37.5 µs of virtio-net's 300"},
	CostRamfsPopulate:       {800, 1, "file", "engineering estimate: node create and dentry insert per file ramfs populates at boot"},
	CostSHFSPopulate:        {120, 1, "object", "engineering estimate: bucket insert per object of a volume built offline"},
	CostSnapMarkTable:       {700, 1, "table", "engineering estimate: the capture-time MarkCOW pass (clear RW, set COW, flush)"},
	CostForkRoot:            {2_000, 1, "fork", "engineering estimate: a clone's private PML4 and CR3 load"},
	CostCOWFault:            {4_700, 1, "page", "engineering estimate: a VM-exit-class trap, a 4 KiB copy and the PTE rewrite"},
	CostCOWTableCopy:        {400, 1, "table", "engineering estimate: copy one 512-entry table inside a fault already being serviced"},
	CostHeapAttach:          {3_000, 1, "fork", "engineering estimate: re-seat the allocator over the clone's COW heap"},
	CostSchedResume:         {9_000, 1, "fork", "engineering estimate: rebuild the run queue from captured state, far below uksched's constructor"},
	CostBootallocInit:       {50, 1, "init", "engineering estimate: a region allocator records its bounds"},
	CostBootallocMalloc:     {20, 1, "call", "engineering estimate: bump the break"},
	CostBootallocFree:       {4, 1, "call", "engineering estimate: frees are dropped"},
	CostBuddyInitFrame:      {72, 1, "frame", "Fig 14: Mini-OS walks the frame table, ~2.6 ms over a 1 GiB heap's 512 MiB region"},
	CostBuddyMalloc:         {30, 1, "call", "engineering estimate: header write and accounting"},
	CostBuddyOrderScan:      {4, 1, "order", "engineering estimate: skip one empty free list"},
	CostBuddySplit:          {12, 1, "split", "engineering estimate: push the upper half"},
	CostBuddyFree:           {20, 1, "call", "engineering estimate: resolve and push"},
	CostBuddyMerge:          {16, 1, "merge", "engineering estimate: unlink a buddy and coalesce"},
	CostBuddyMemalign:       {40, 1, "call", "engineering estimate: back-pointer write and accounting"},
	CostMimallocInit:        {1_400_000, 1, "init", "§3.2: segment headers and the GC thread that needs an early allocator"},
	CostMimallocInitPage:    {8, 1, "page", "engineering estimate: one page descriptor"},
	CostMimallocFast:        {12, 1, "call", "engineering estimate: fast path, pop a block and account"},
	CostMimallocPage:        {80, 1, "call", "engineering estimate: acquire a fresh page for a size class"},
	CostMimallocFail:        {30, 1, "call", "engineering estimate: a failed page acquisition"},
	CostMimallocLarge:       {100, 1, "call", "engineering estimate: carve a large span"},
	CostMimallocLargeFail:   {40, 1, "call", "engineering estimate: a failed large span"},
	CostMimallocFree:        {10, 1, "call", "engineering estimate: free fast path, one push"},
	CostMimallocRetire:      {30, 1, "call", "engineering estimate: retire an emptied page"},
	CostMimallocFreeLarge:   {40, 1, "call", "engineering estimate: release a large span"},
	CostTinyallocInitDesc:   {6, 1, "block", "Fig 14: one link write per descriptor, 0.87 ms mid-pack boot"},
	CostTinyallocMalloc:     {10, 1, "call", "engineering estimate: malloc entry"},
	CostTinyallocScan:       {6, 1, "block", "engineering estimate: one first-fit free-list step"},
	CostTinyallocSplit:      {8, 1, "split", "engineering estimate: split off the remainder"},
	CostTinyallocCarve:      {12, 1, "call", "engineering estimate: carve from the top region"},
	CostTinyallocFree:       {8, 1, "call", "engineering estimate: free entry"},
	CostTinyallocUsedScan:   {5, 1, "block", "engineering estimate: one used-list step"},
	CostTinyallocCompact:    {4, 1, "block", "engineering estimate: one compaction step"},
	CostTinyallocMerge:      {6, 1, "merge", "engineering estimate: merge adjacent free blocks"},
	CostTLSFInit:            {400, 1, "init", "engineering estimate: bitmap clears and a single insert"},
	CostTLSFMalloc:          {60, 1, "call", "engineering estimate: two-level bitmap search, split"},
	CostTLSFFree:            {60, 1, "call", "engineering estimate: coalesce and insert"},
	CostTLSFGrow:            {80, 1, "call", "engineering estimate: realloc grown into the free successor"},
	CostTLSFMemalign:        {100, 1, "call", "engineering estimate: over-allocate and trim the leading gap"},
	CostVirtioTx:            {82, 1, "packet", "engineering estimate: build one virtio TX descriptor"},
	CostVirtioRx:            {76, 1, "packet", "engineering estimate: reap one virtio RX descriptor"},
	CostPktGen:              {40, 1, "packet", "Fig 19: the generator loop beside the uknetdev driver"},
	CostDPDKPktGen:          {60, 1, "packet", "Fig 19: DPDK's PMD loop in a Linux VM"},
	CostEthRx:               {45, 1, "frame", "engineering estimate: Ethernet parse; the stack rows sum to the gap between Table 4's lwIP and raw rows"},
	CostEthTx:               {40, 1, "frame", "engineering estimate: Ethernet header write and hand to the driver"},
	CostARP:                 {120, 1, "packet", "engineering estimate: ARP request or reply and cache update"},
	CostIPRx:                {160, 1, "packet", "engineering estimate: IPv4 header validation incl. checksum"},
	CostIPTx:                {150, 1, "packet", "engineering estimate: IPv4 header build incl. checksum"},
	CostICMP:                {90, 1, "packet", "engineering estimate: ICMP echo handling"},
	CostUDPRx:               {140, 1, "datagram", "engineering estimate: UDP parse, checksum and port demux"},
	CostUDPTx:               {130, 1, "datagram", "engineering estimate: UDP header build incl. checksum"},
	CostTCPRx:               {420, 1, "segment", "engineering estimate: TCP input state machine"},
	CostTCPTx:               {380, 1, "segment", "engineering estimate: TCP output, header and retransmit bookkeeping"},
	CostSockQueue:           {260, 1, "call", "engineering estimate: socket buffer enqueue/dequeue; the bytes pay CostCopy"},
	CostSockQueueZC:         {80, 1, "call", "engineering estimate: zero-copy handoff (§3.1), pointer bookkeeping only"},
	CostLwIPSocket:          {4300, 1, "datagram", "Table 4: lwIP's pbuf chains, mbox handoff and thread wakeup (319K req/s)"},
	CostLinuxStackPacket:    {2600, 1, "packet", "engineering estimate: Linux skb, qdisc and driver path from published breakdowns"},
	CostRouteConnTrack:      {190, 1, "request", "engineering estimate: 5-tuple hash, connection table and header rewrite"},
	CostRouteRR:             {20, 1, "request", "engineering estimate: round-robin counter bump"},
	CostRouteScan:           {14, 1, "host", "engineering estimate: one counter load and compare in the least-loaded scan"},
	CostRouteHash:           {110, 1, "request", "engineering estimate: hash the session key and search the ring"},
	CostRouteProbe:          {120, 1, "host", "engineering estimate: craft, send and match one health probe"},
	CostRouteReject:         {90, 1, "request", "engineering estimate: answer a shed request without touching the table"},
	CostRouteExpire:         {95, 1, "request", "engineering estimate: the reject path plus a deadline compare"},
	CostVFSPath:             {260, 1, "call", "Fig 22: normalization and mount resolution; an open hit lands near 1637"},
	CostVFSComponent:        {240, 1, "component", "Fig 22: dentry handling per path element"},
	CostVFSLock:             {300, 1, "call", "Fig 22: vfs_lock/unlock pair"},
	CostVFSVnode:            {420, 1, "open", "Fig 22: vnode alloc and init"},
	CostVFSFD:               {90, 1, "call", "Fig 22: fd allocation or release"},
	CostVFSMiss:             {580, 1, "miss", "Fig 22: negative-lookup unwinding; an open miss lands near 2219"},
	CostVFSRW:               {220, 1, "call", "engineering estimate: read/write call overhead; the bytes pay CostCopy"},
	CostSendfile:            {180, 1, "call", "engineering estimate: sendfile setup, fd lookup and range clamp"},
	CostPageHit:             {60, 1, "page", "engineering estimate: cache probe on a resident page"},
	CostPageInsert:          {110, 1, "page", "engineering estimate: insert and eviction bookkeeping on a miss"},
	CostPageShare:           {30, 1, "page", "engineering estimate: zero-copy fill from a lent view"},
	CostSendfilePage:        {90, 1, "page", "engineering estimate: handoff of one page into the socket layer"},
	CostCowLookup:           {20, 1, "component", "engineering estimate: the overlay probe above the base lookup"},
	CostCowCopyUp:           {500, 1, "copy-up", "engineering estimate: page-fault-grade fixed cost; the bytes pay CostCopy"},
	CostRamfsLookup:         {140, 1, "component", "engineering estimate: a map probe"},
	CostSHFSRequest:         {230, 1, "open", "Fig 22: request setup, handle slot and return; a hit lands at 308, a miss at 291"},
	CostSHFSHash:            {26, 1, "open", "Fig 22: hash the name"},
	CostSHFSProbe:           {35, 1, "bucket", "Fig 22: one bucket examined"},
	CostSHFSCompare:         {17, 1, "candidate", "Fig 22: name comparison on a hash match"},
	CostSHFSRead:            {40, 1, "call", "engineering estimate: object handoff; a copying read adds CostCopy"},
	Cost9PLookup:            {120, 1, "component", "engineering estimate: build the Twalk and manage fids"},
	Cost9PRPC:               {30_000, 1, "RPC", "Fig 20: virtio-9p descriptors and host service, ~8.3 µs"},
	Cost9PByte:              {6, 5, "byte", "Fig 20: shared-ring copies, ~0.33 ns/B"},
	CostLinux9PRPC:          {198_000, 1, "RPC", "Fig 20: v9fs in a Linux guest adds syscall, VFS and page-cache work"},
	CostLinux9PByte:         {10, 5, "byte", "Fig 20: v9fs copies through the guest page cache"},
	CostUDPKVRaw:            {420, 1, "request", "Table 4: inline parse, reply and checksum; lands the raw row near 6.3M req/s"},
	CostNginxRequest:        {5000, 1, "request", "Fig 13: nginx header parse, vhost match, logging and timers, ~1.4 µs"},
	CostRedisCommand:        {900, 1, "command", "Fig 12: Redis dict, SDS and event-loop work, ~250 ns"},
	CostSQLiteInit:          {5_000_000, 1, "init", "Fig 16: SQLite open, sets the paper's init-cost ratios"},
	CostSQLiteStatement:     {9000, 1, "statement", "Fig 16: bytecode interpretation and journal bookkeeping"},
}

// Cycles returns the price of n units of row id, rounded down.
func Cycles(id CostID, n uint64) uint64 {
	c := &costs[id]
	if c.per == 1 {
		return n * c.cycles
	}
	return n * c.cycles / c.per
}

// Machine is one simulated computer: its CPU and deterministic random
// source. Higher layers carry a *Machine and pay their costs through it.
type Machine struct {
	CPU  *CPU
	Rand *Rand
}

// NewMachine builds a machine with the default 3.6 GHz CPU, seeded
// deterministically.
func NewMachine() *Machine {
	return &Machine{CPU: NewCPU(0), Rand: NewRand(0x5eed_0f_0ff1ce)}
}

// NewMachineWithSeed builds a machine like NewMachine but with its
// random source seeded from seed. Fleets of simulated instances (the
// ukpool serving layer) give each instance a distinct deterministic
// seed so per-instance clocks stay independent yet runs reproduce.
func NewMachineWithSeed(seed uint64) *Machine {
	m := NewMachine()
	m.Rand.Seed(seed)
	return m
}

// Pay advances the machine clock by the price of n units of row id.
func (m *Machine) Pay(id CostID, n uint64) { m.CPU.Advance(Cycles(id, n)) }

// Charge advances the machine clock by n cycles.
func (m *Machine) Charge(n uint64) { m.CPU.Advance(n) }

// ChargeDuration advances the machine clock by a wall-clock duration.
func (m *Machine) ChargeDuration(d time.Duration) { m.CPU.AdvanceDuration(d) }
