package sim

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

// Layer names the part of the system a cycle is spent in. Every row of
// the cost table belongs to one layer, and a Machine's ledger sums its
// clock per layer.
type Layer uint8

// The layers. No row pays idle (a clock jumping while nothing runs) or
// unattributed (Machine.Charge's raw cycles).
const (
	LayerNetdev Layer = iota
	LayerNetstack
	LayerSocket
	LayerCopy
	LayerVFS
	LayerAlloc
	LayerBoot
	LayerPlatform
	LayerSyscall
	LayerApp
	LayerRouter
	LayerIdle
	LayerUnattributed
	NumLayers
)

var layerNames = [NumLayers]string{"netdev", "netstack", "socket", "copy", "vfs", "alloc",
	"boot", "platform", "syscall", "app", "router", "idle", "unattributed"}

// String names the layer as the ledger's readers print it.
func (l Layer) String() string { return layerNames[l] }

// cost is one row: n units cost n*cycles/per cycles (3.6 GHz), rounded
// down, spent in layer.
type cost struct {
	layer        Layer
	cycles, per  uint64
	unit, source string
}

var costs = [numCosts]cost{
	CostFunctionCall:        {LayerSyscall, 4, 1, "call", "Table 1: a no-op function call, 1.11 ns"},
	CostUnikraftSyscall:     {LayerSyscall, 84, 1, "call", "Table 1: a syscall translated by the shim, 23.33 ns"},
	CostLinuxSyscall:        {LayerSyscall, 222, 1, "call", "Table 1: a Linux/KVM syscall with default mitigations, 61.67 ns"},
	CostLinuxSyscallNoMitig: {LayerSyscall, 154, 1, "call", "Table 1: a Linux/KVM syscall with mitigations off, 42.78 ns"},
	CostCopy:                {LayerCopy, 1, 16, "byte", "engineering estimate: 16 bytes/cycle with wide loads"},
	CostCopySetup:           {LayerCopy, 1, 1, "copy", "engineering estimate: the fixed cycle of a non-empty copy in the pool's service model"},
	CostVMExit:              {LayerPlatform, 4320, 1, "exit", "engineering estimate: a KVM exit and re-entry (virtqueue kick), 1.2 µs; literature 1-2 µs"},
	CostStaticPT:            {LayerBoot, 104_400, 1, "boot", "Fig 21: enabling the pre-built static page table, 29 µs"},
	CostDynamicPT:           {LayerBoot, 160_000, 1, "boot", "Fig 21: dynamic-path setup (walk, CR3 load, TLB flush), ~44 µs; 32 MB lands at 46 µs"},
	CostDynamicPTTable:      {LayerBoot, 151, 1, "table", "Fig 21: allocate and fill one 512-entry table; the 1-3 GB slope is ~21.5 µs/GB"},
	CostNoPT:                {LayerBoot, 18_000, 1, "boot", "engineering estimate: protected-mode setup without paging"},
	CostSMPAPInit:           {LayerBoot, 90_000, 1, "vCPU", "engineering estimate: SIPI trampoline, per-CPU areas and idle thread per extra vCPU, 25 µs"},
	CostNetQueueInit:        {LayerBoot, 135_000, 1, "queue", "engineering estimate: vring, MSI-X vector and ioeventfd per extra queue pair, 37.5 µs of virtio-net's 300"},
	CostRamfsPopulate:       {LayerBoot, 800, 1, "file", "engineering estimate: node create and dentry insert per file ramfs populates at boot"},
	CostSHFSPopulate:        {LayerBoot, 120, 1, "object", "engineering estimate: bucket insert per object of a volume built offline"},
	CostSnapMarkTable:       {LayerBoot, 700, 1, "table", "engineering estimate: the capture-time MarkCOW pass (clear RW, set COW, flush)"},
	CostForkRoot:            {LayerBoot, 2_000, 1, "fork", "engineering estimate: a clone's private PML4 and CR3 load"},
	CostCOWFault:            {LayerBoot, 4_700, 1, "page", "engineering estimate: a VM-exit-class trap, a 4 KiB copy and the PTE rewrite"},
	CostCOWTableCopy:        {LayerBoot, 400, 1, "table", "engineering estimate: copy one 512-entry table inside a fault already being serviced"},
	CostHeapAttach:          {LayerBoot, 3_000, 1, "fork", "engineering estimate: re-seat the allocator over the clone's COW heap"},
	CostSchedResume:         {LayerBoot, 9_000, 1, "fork", "engineering estimate: rebuild the run queue from captured state, far below uksched's constructor"},
	CostBootallocInit:       {LayerAlloc, 50, 1, "init", "engineering estimate: a region allocator records its bounds"},
	CostBootallocMalloc:     {LayerAlloc, 20, 1, "call", "engineering estimate: bump the break"},
	CostBootallocFree:       {LayerAlloc, 4, 1, "call", "engineering estimate: frees are dropped"},
	CostBuddyInitFrame:      {LayerAlloc, 72, 1, "frame", "Fig 14: Mini-OS walks the frame table, ~2.6 ms over a 1 GiB heap's 512 MiB region"},
	CostBuddyMalloc:         {LayerAlloc, 30, 1, "call", "engineering estimate: header write and accounting"},
	CostBuddyOrderScan:      {LayerAlloc, 4, 1, "order", "engineering estimate: skip one empty free list"},
	CostBuddySplit:          {LayerAlloc, 12, 1, "split", "engineering estimate: push the upper half"},
	CostBuddyFree:           {LayerAlloc, 20, 1, "call", "engineering estimate: resolve and push"},
	CostBuddyMerge:          {LayerAlloc, 16, 1, "merge", "engineering estimate: unlink a buddy and coalesce"},
	CostBuddyMemalign:       {LayerAlloc, 40, 1, "call", "engineering estimate: back-pointer write and accounting"},
	CostMimallocInit:        {LayerAlloc, 1_400_000, 1, "init", "§3.2: segment headers and the GC thread that needs an early allocator"},
	CostMimallocInitPage:    {LayerAlloc, 8, 1, "page", "engineering estimate: one page descriptor"},
	CostMimallocFast:        {LayerAlloc, 12, 1, "call", "engineering estimate: fast path, pop a block and account"},
	CostMimallocPage:        {LayerAlloc, 80, 1, "call", "engineering estimate: acquire a fresh page for a size class"},
	CostMimallocFail:        {LayerAlloc, 30, 1, "call", "engineering estimate: a failed page acquisition"},
	CostMimallocLarge:       {LayerAlloc, 100, 1, "call", "engineering estimate: carve a large span"},
	CostMimallocLargeFail:   {LayerAlloc, 40, 1, "call", "engineering estimate: a failed large span"},
	CostMimallocFree:        {LayerAlloc, 10, 1, "call", "engineering estimate: free fast path, one push"},
	CostMimallocRetire:      {LayerAlloc, 30, 1, "call", "engineering estimate: retire an emptied page"},
	CostMimallocFreeLarge:   {LayerAlloc, 40, 1, "call", "engineering estimate: release a large span"},
	CostTinyallocInitDesc:   {LayerAlloc, 6, 1, "block", "Fig 14: one link write per descriptor, 0.87 ms mid-pack boot"},
	CostTinyallocMalloc:     {LayerAlloc, 10, 1, "call", "engineering estimate: malloc entry"},
	CostTinyallocScan:       {LayerAlloc, 6, 1, "block", "engineering estimate: one first-fit free-list step"},
	CostTinyallocSplit:      {LayerAlloc, 8, 1, "split", "engineering estimate: split off the remainder"},
	CostTinyallocCarve:      {LayerAlloc, 12, 1, "call", "engineering estimate: carve from the top region"},
	CostTinyallocFree:       {LayerAlloc, 8, 1, "call", "engineering estimate: free entry"},
	CostTinyallocUsedScan:   {LayerAlloc, 5, 1, "block", "engineering estimate: one used-list step"},
	CostTinyallocCompact:    {LayerAlloc, 4, 1, "block", "engineering estimate: one compaction step"},
	CostTinyallocMerge:      {LayerAlloc, 6, 1, "merge", "engineering estimate: merge adjacent free blocks"},
	CostTLSFInit:            {LayerAlloc, 400, 1, "init", "engineering estimate: bitmap clears and a single insert"},
	CostTLSFMalloc:          {LayerAlloc, 60, 1, "call", "engineering estimate: two-level bitmap search, split"},
	CostTLSFFree:            {LayerAlloc, 60, 1, "call", "engineering estimate: coalesce and insert"},
	CostTLSFGrow:            {LayerAlloc, 80, 1, "call", "engineering estimate: realloc grown into the free successor"},
	CostTLSFMemalign:        {LayerAlloc, 100, 1, "call", "engineering estimate: over-allocate and trim the leading gap"},
	CostVirtioTx:            {LayerNetdev, 82, 1, "packet", "engineering estimate: build one virtio TX descriptor"},
	CostVirtioRx:            {LayerNetdev, 76, 1, "packet", "engineering estimate: reap one virtio RX descriptor"},
	CostPktGen:              {LayerNetdev, 40, 1, "packet", "Fig 19: the generator loop beside the uknetdev driver"},
	CostDPDKPktGen:          {LayerNetdev, 60, 1, "packet", "Fig 19: DPDK's PMD loop in a Linux VM"},
	CostEthRx:               {LayerNetstack, 45, 1, "frame", "engineering estimate: Ethernet parse; the stack rows sum to the gap between Table 4's lwIP and raw rows"},
	CostEthTx:               {LayerNetstack, 40, 1, "frame", "engineering estimate: Ethernet header write and hand to the driver"},
	CostARP:                 {LayerNetstack, 120, 1, "packet", "engineering estimate: ARP request or reply and cache update"},
	CostIPRx:                {LayerNetstack, 160, 1, "packet", "engineering estimate: IPv4 header validation incl. checksum"},
	CostIPTx:                {LayerNetstack, 150, 1, "packet", "engineering estimate: IPv4 header build incl. checksum"},
	CostICMP:                {LayerNetstack, 90, 1, "packet", "engineering estimate: ICMP echo handling"},
	CostUDPRx:               {LayerNetstack, 140, 1, "datagram", "engineering estimate: UDP parse, checksum and port demux"},
	CostUDPTx:               {LayerNetstack, 130, 1, "datagram", "engineering estimate: UDP header build incl. checksum"},
	CostTCPRx:               {LayerNetstack, 420, 1, "segment", "engineering estimate: TCP input state machine"},
	CostTCPTx:               {LayerNetstack, 380, 1, "segment", "engineering estimate: TCP output, header and retransmit bookkeeping"},
	CostSockQueue:           {LayerSocket, 260, 1, "call", "engineering estimate: socket buffer enqueue/dequeue; the bytes pay CostCopy"},
	CostSockQueueZC:         {LayerSocket, 80, 1, "call", "engineering estimate: zero-copy handoff (§3.1), pointer bookkeeping only"},
	CostLwIPSocket:          {LayerSocket, 4300, 1, "datagram", "Table 4: lwIP's pbuf chains, mbox handoff and thread wakeup (319K req/s)"},
	CostLinuxStackPacket:    {LayerNetstack, 2600, 1, "packet", "engineering estimate: Linux skb, qdisc and driver path from published breakdowns"},
	CostRouteConnTrack:      {LayerRouter, 190, 1, "request", "engineering estimate: 5-tuple hash, connection table and header rewrite"},
	CostRouteRR:             {LayerRouter, 20, 1, "request", "engineering estimate: round-robin counter bump"},
	CostRouteScan:           {LayerRouter, 14, 1, "host", "engineering estimate: one counter load and compare in the least-loaded scan"},
	CostRouteHash:           {LayerRouter, 110, 1, "request", "engineering estimate: hash the session key and search the ring"},
	CostRouteProbe:          {LayerRouter, 120, 1, "host", "engineering estimate: craft, send and match one health probe"},
	CostRouteReject:         {LayerRouter, 90, 1, "request", "engineering estimate: answer a shed request without touching the table"},
	CostRouteExpire:         {LayerRouter, 95, 1, "request", "engineering estimate: the reject path plus a deadline compare"},
	CostVFSPath:             {LayerVFS, 260, 1, "call", "Fig 22: normalization and mount resolution; an open hit lands near 1637"},
	CostVFSComponent:        {LayerVFS, 240, 1, "component", "Fig 22: dentry handling per path element"},
	CostVFSLock:             {LayerVFS, 300, 1, "call", "Fig 22: vfs_lock/unlock pair"},
	CostVFSVnode:            {LayerVFS, 420, 1, "open", "Fig 22: vnode alloc and init"},
	CostVFSFD:               {LayerVFS, 90, 1, "call", "Fig 22: fd allocation or release"},
	CostVFSMiss:             {LayerVFS, 580, 1, "miss", "Fig 22: negative-lookup unwinding; an open miss lands near 2219"},
	CostVFSRW:               {LayerVFS, 220, 1, "call", "engineering estimate: read/write call overhead; the bytes pay CostCopy"},
	CostSendfile:            {LayerVFS, 180, 1, "call", "engineering estimate: sendfile setup, fd lookup and range clamp"},
	CostPageHit:             {LayerVFS, 60, 1, "page", "engineering estimate: cache probe on a resident page"},
	CostPageInsert:          {LayerVFS, 110, 1, "page", "engineering estimate: insert and eviction bookkeeping on a miss"},
	CostPageShare:           {LayerVFS, 30, 1, "page", "engineering estimate: zero-copy fill from a lent view"},
	CostSendfilePage:        {LayerVFS, 90, 1, "page", "engineering estimate: handoff of one page into the socket layer"},
	CostCowLookup:           {LayerVFS, 20, 1, "component", "engineering estimate: the overlay probe above the base lookup"},
	CostCowCopyUp:           {LayerVFS, 500, 1, "copy-up", "engineering estimate: page-fault-grade fixed cost; the bytes pay CostCopy"},
	CostRamfsLookup:         {LayerVFS, 140, 1, "component", "engineering estimate: a map probe"},
	CostSHFSRequest:         {LayerVFS, 230, 1, "open", "Fig 22: request setup, handle slot and return; a hit lands at 308, a miss at 291"},
	CostSHFSHash:            {LayerVFS, 26, 1, "open", "Fig 22: hash the name"},
	CostSHFSProbe:           {LayerVFS, 35, 1, "bucket", "Fig 22: one bucket examined"},
	CostSHFSCompare:         {LayerVFS, 17, 1, "candidate", "Fig 22: name comparison on a hash match"},
	CostSHFSRead:            {LayerVFS, 40, 1, "call", "engineering estimate: object handoff; a copying read adds CostCopy"},
	Cost9PLookup:            {LayerVFS, 120, 1, "component", "engineering estimate: build the Twalk and manage fids"},
	Cost9PRPC:               {LayerVFS, 30_000, 1, "RPC", "Fig 20: virtio-9p descriptors and host service, ~8.3 µs"},
	Cost9PByte:              {LayerVFS, 6, 5, "byte", "Fig 20: shared-ring copies, ~0.33 ns/B"},
	CostLinux9PRPC:          {LayerVFS, 198_000, 1, "RPC", "Fig 20: v9fs in a Linux guest adds syscall, VFS and page-cache work"},
	CostLinux9PByte:         {LayerVFS, 10, 5, "byte", "Fig 20: v9fs copies through the guest page cache"},
	CostUDPKVRaw:            {LayerApp, 420, 1, "request", "Table 4: inline parse, reply and checksum; lands the raw row near 6.3M req/s"},
	CostNginxRequest:        {LayerApp, 5000, 1, "request", "Fig 13: nginx header parse, vhost match, logging and timers, ~1.4 µs"},
	CostRedisCommand:        {LayerApp, 900, 1, "command", "Fig 12: Redis dict, SDS and event-loop work, ~250 ns"},
	CostSQLiteInit:          {LayerApp, 5_000_000, 1, "init", "Fig 16: SQLite open, sets the paper's init-cost ratios"},
	CostSQLiteStatement:     {LayerApp, 9000, 1, "statement", "Fig 16: bytecode interpretation and journal bookkeeping"},
}

// Cycles returns the price of n units of row id, rounded down.
func Cycles(id CostID, n uint64) uint64 {
	c := &costs[id]
	if c.per == 1 {
		return n * c.cycles
	}
	return n * c.cycles / c.per
}

// Machine is one simulated computer: its CPU, deterministic random
// source and ledger. Higher layers carry a *Machine and pay their costs
// through it; it is the only thing that moves its CPU's clock, so the
// ledger always sums to CPU.Cycles().
type Machine struct {
	CPU    *CPU
	Rand   *Rand
	ledger [NumLayers]uint64
}

// defaultSeed seeds NewMachine's random source.
const defaultSeed = 0x5eed_0f_0ff1ce

// machineBlock lays a machine out with its CPU and random source, so a
// machine is one allocation, not three.
type machineBlock struct {
	m    Machine
	cpu  CPU
	rand Rand
}

// NewMachine builds a machine with the default 3.6 GHz CPU, seeded
// deterministically.
func NewMachine() *Machine { return NewMachineWithSeed(defaultSeed) }

// NewMachineWithSeed builds a machine like NewMachine but with its
// random source seeded from seed. Fleets of simulated instances (the
// ukpool serving layer) give each instance a distinct deterministic
// seed so per-instance clocks stay independent yet runs reproduce.
func NewMachineWithSeed(seed uint64) *Machine {
	b := &machineBlock{}
	b.m.CPU, b.m.Rand = &b.cpu, &b.rand
	b.m.Reset(seed)
	return &b.m
}

// Reset returns m to the state NewMachineWithSeed(seed) builds: clock
// and ledger at zero, the default clock rate, the random source
// reseeded. A fleet that retires an instance boots the next one on its
// machine instead of making another.
func (m *Machine) Reset(seed uint64) {
	*m.CPU = CPU{Hz: DefaultHz}
	m.Rand.reseed(seed)
	m.ledger = [NumLayers]uint64{}
}

// Pay advances the machine clock by the price of n units of row id, on
// the row's layer.
func (m *Machine) Pay(id CostID, n uint64) { m.Spend(costs[id].layer, Cycles(id, n)) }

// Spend advances the machine clock by n cycles on layer l: the price of
// a table keyed by its natural key (a library's constructor, a VMM's
// setup), or idle time.
func (m *Machine) Spend(l Layer, n uint64) {
	m.CPU.advance(n)
	m.ledger[l] += n
}

// Charge advances the machine clock by n cycles no row or layer names.
func (m *Machine) Charge(n uint64) { m.Spend(LayerUnattributed, n) }

// Ledger reports the cycles the machine has spent, per layer.
func (m *Machine) Ledger() [NumLayers]uint64 { return m.ledger }
