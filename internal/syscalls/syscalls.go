// Package syscalls reproduces the paper's application-compatibility
// analysis (§4.1, Figures 5 and 7): which Linux syscalls the 30 most
// popular Debian server applications require, which of those Unikraft
// supports, and how much closer full support gets if the next most
// common missing syscalls are implemented.
//
// The Unikraft-supported set is transcribed from Figure 5's annotated
// heatmap. The per-application requirement sets are synthesized from a
// common POSIX server profile plus per-application extras (the paper
// derived them with strace-based dynamic analysis; the raw sets are not
// published), which preserves the figure's structure: every app is
// mostly green, a small shared tail of missing syscalls dominates.
package syscalls

import (
	"fmt"
	"sort"
	"strings"
)

// MaxNr is the highest syscall number on the Fig 5 map (finit_module).
const MaxNr = 313

// SupportedNumbers is the set of syscalls implemented by Unikraft as of
// the paper (146 syscalls; Figure 5's numbered squares).
var SupportedNumbers = buildSupported()

func buildSupported() []int {
	// Transcribed from Figure 5: ranges are inclusive.
	ranges := [][2]int{
		{0, 24}, {26, 26}, {28, 28}, {32, 35}, {37, 56}, {59, 63},
		{72, 89}, {90, 93}, {95, 100}, {102, 119}, {120, 121}, {124, 124},
		{132, 133}, {140, 141}, {157, 158}, {160, 161}, {165, 166}, {170, 170},
		{201, 202}, {204, 205}, {211, 211}, {213, 213}, {217, 218},
		{228, 233}, {235, 235}, {257, 257}, {261, 261}, {269, 269},
		{271, 271}, {273, 273}, {280, 281}, {285, 285}, {288, 288},
		{291, 293}, {295, 296}, {302, 302},
	}
	var out []int
	for _, r := range ranges {
		for n := r[0]; n <= r[1]; n++ {
			out = append(out, n)
		}
	}
	return out
}

// names for the syscalls the analysis talks about.
var names = map[int]string{
	0: "read", 1: "write", 2: "open", 3: "close", 4: "stat", 5: "fstat",
	7: "poll", 8: "lseek", 9: "mmap", 12: "brk", 13: "rt_sigaction",
	16: "ioctl", 22: "pipe", 23: "select", 32: "dup", 33: "dup2",
	39: "getpid", 41: "socket", 42: "connect", 43: "accept", 44: "sendto",
	45: "recvfrom", 46: "sendmsg", 47: "recvmsg", 48: "shutdown",
	49: "bind", 50: "listen", 54: "setsockopt", 56: "clone", 57: "fork",
	59: "execve", 60: "exit", 61: "wait4", 62: "kill", 64: "semget",
	65: "semop", 66: "semctl", 72: "fcntl", 78: "getdents", 83: "mkdir",
	87: "unlink", 96: "gettimeofday", 102: "getuid", 128: "rt_sigtimedwait",
	186: "gettid", 202: "futex", 213: "epoll_create", 218: "set_tid_address",
	228: "clock_gettime", 231: "exit_group", 232: "epoll_wait",
	233: "epoll_ctl", 257: "openat", 281: "epoll_pwait", 284: "eventfd",
	290: "eventfd2", 291: "epoll_create1", 302: "prlimit64",
	309: "getcpu", 313: "finit_module",
}

// Name returns a syscall's name ("sys_<nr>" when unknown to the table).
func Name(nr int) string {
	if n, ok := names[nr]; ok {
		return n
	}
	return fmt.Sprintf("sys_%d", nr)
}

// App is one analyzed server application with its required syscall set.
type App struct {
	Name     string
	Required []int
}

// commonServerSet is the POSIX baseline every server app needs: file
// I/O, memory, signals, identity, sockets, time.
var commonServerSet = []int{
	0, 1, 2, 3, 4, 5, 8, 9, 10, 11, 12, 13, 14, 16, 21, 22, 23, 32, 33,
	39, 41, 42, 43, 44, 45, 48, 49, 50, 51, 52, 54, 55, 59, 60, 63, 72,
	78, 79, 83, 87, 89, 96, 97, 99, 102, 104, 107, 108, 110, 116,
	137, 157, 158, 186, 201, 202, 218, 228, 231, 257, 273, 302,
}

// perAppExtras differentiates the 30 applications. Unsupported numbers
// (not in SupportedNumbers) drive Fig 7's non-green tail: 7=poll is
// supported... the heavy hitters are epoll (213/232/233), eventfd (284/
// 290), semaphores (64-66), fork/clone (56/57), getcpu (309).
var perAppExtras = map[string][]int{
	"apache":        {7, 56, 57, 61, 64, 65, 66, 213, 232, 233, 290},
	"avahi":         {7, 16, 47, 46, 128},
	"bind9":         {7, 46, 47, 56, 213, 232, 233, 290},
	"dovecot":       {7, 56, 57, 61, 213, 232, 233, 284},
	"exim":          {7, 56, 57, 61, 64},
	"firebird":      {7, 56, 64, 65, 66, 213, 232, 233},
	"groonga":       {7, 213, 232, 233},
	"h2o":           {7, 213, 232, 233, 290, 309},
	"influxdb":      {7, 213, 232, 233, 284, 290},
	"knot":          {7, 46, 47, 213, 232, 233, 309},
	"lighttpd":      {7, 213, 232, 233},
	"mariadb":       {7, 56, 64, 65, 66, 213, 232, 233, 284},
	"memcached":     {7, 213, 232, 233, 284},
	"mongodb":       {7, 56, 213, 232, 233, 284, 290, 309},
	"mongoose":      {7, 23},
	"mongrel":       {7, 23, 56},
	"mutt":          {7, 23},
	"mysql":         {7, 56, 64, 65, 66, 213, 232, 233, 284},
	"nghttp":        {7, 213, 232, 233, 290},
	"nginx":         {7, 46, 47, 213, 232, 233},
	"nullmailer":    {7, 23},
	"openlitespeed": {7, 56, 57, 213, 232, 233, 290},
	"opensmtpd":     {7, 56, 57, 61, 213, 232, 233},
	"postgresql":    {7, 56, 57, 61, 64, 65, 66, 23},
	"redis":         {7, 213, 232, 233},
	"sqlite3":       {7},
	"tntnet":        {7, 56, 213, 232, 233},
	"webfs":         {7, 23},
	"weborf":        {7, 23, 56},
	"whitedb":       {7, 64, 65, 66},
}

// Top30Apps returns the analyzed application set, sorted by name, each
// with its deduplicated, sorted requirement set.
func Top30Apps() []App {
	var out []App
	for name, extras := range perAppExtras {
		set := map[int]bool{}
		for _, n := range commonServerSet {
			set[n] = true
		}
		for _, n := range extras {
			set[n] = true
		}
		req := make([]int, 0, len(set))
		for n := range set {
			req = append(req, n)
		}
		sort.Ints(req)
		out = append(out, App{Name: name, Required: req})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Analysis is the Fig 5/7 computation result.
type Analysis struct {
	Apps      []App
	Supported map[int]bool
	// UsageCount[nr] counts how many apps require nr.
	UsageCount map[int]int
}

// Analyze runs the Fig 5/7 pipeline over the app set and supported
// list.
func Analyze(apps []App, supported []int) *Analysis {
	a := &Analysis{Apps: apps, Supported: map[int]bool{}, UsageCount: map[int]int{}}
	for _, nr := range supported {
		a.Supported[nr] = true
	}
	for _, app := range apps {
		for _, nr := range app.Required {
			a.UsageCount[nr]++
		}
	}
	return a
}

// supportPercent reports the fraction of app's required syscalls that
// are supported, optionally treating `extra` numbers as implemented
// (the Fig 7 "+top5/+top10" scenarios).
func (a *Analysis) supportPercent(app App, extra map[int]bool) float64 {
	if len(app.Required) == 0 {
		return 100
	}
	got := 0
	for _, nr := range app.Required {
		if a.Supported[nr] || (extra != nil && extra[nr]) {
			got++
		}
	}
	return 100 * float64(got) / float64(len(app.Required))
}

// TopMissing returns the k unsupported syscalls required by the most
// apps — the paper's "next 5 / next 10 most common syscalls".
func (a *Analysis) TopMissing(k int) []int {
	type cand struct{ nr, count int }
	var cands []cand
	for nr, cnt := range a.UsageCount {
		if !a.Supported[nr] {
			cands = append(cands, cand{nr, cnt})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].count != cands[j].count {
			return cands[i].count > cands[j].count
		}
		return cands[i].nr < cands[j].nr
	})
	if k > len(cands) {
		k = len(cands)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = cands[i].nr
	}
	return out
}

// Fig7Row is one bar of Figure 7.
type Fig7Row struct {
	App                         string
	Base, Top5, Top10, Complete float64
}

// Fig7 computes every application's support progression.
func (a *Analysis) Fig7() []Fig7Row {
	top5 := setOf(a.TopMissing(5))
	top10 := setOf(a.TopMissing(10))
	var rows []Fig7Row
	for _, app := range a.Apps {
		rows = append(rows, Fig7Row{
			App:      app.Name,
			Base:     a.supportPercent(app, nil),
			Top5:     a.supportPercent(app, top5),
			Top10:    a.supportPercent(app, top10),
			Complete: 100,
		})
	}
	return rows
}

func setOf(nrs []int) map[int]bool {
	m := map[int]bool{}
	for _, n := range nrs {
		m[n] = true
	}
	return m
}

// Heatmap renders the Figure 5 text heatmap: one cell per syscall
// number, '#'-shaded by how many apps need it, with supported syscalls
// marked.
func (a *Analysis) Heatmap(width int) string {
	if width <= 0 {
		width = 16
	}
	var b strings.Builder
	total := len(a.Apps)
	for nr := 0; nr <= MaxNr; nr++ {
		if nr%width == 0 {
			if nr > 0 {
				b.WriteByte('\n')
			}
			fmt.Fprintf(&b, "%3d: ", nr)
		}
		cnt := a.UsageCount[nr]
		var shade byte
		switch {
		case cnt == 0:
			shade = '.'
		case cnt <= total/5:
			shade = '-'
		case cnt <= total/2:
			shade = '+'
		default:
			shade = '#'
		}
		if a.Supported[nr] {
			b.WriteByte(shade)
		} else if cnt > 0 {
			b.WriteByte('!') // needed but unsupported
		} else {
			b.WriteByte(' ')
		}
	}
	b.WriteByte('\n')
	return b.String()
}
