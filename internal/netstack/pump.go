package netstack

// Pump drives a set of stacks to quiescence. Tests and benchmarks use
// it as the "world scheduler" connecting client and server stacks over
// a uknetdev pair.
//
// A naive pump re-polls every stack every round, which is
// O(rounds x stacks) even when most stacks went quiet after the first
// exchange. Pump instead skips a stack while it is quiescent: it made
// no progress last round and its device reports no pending RX frames.
// A skipped stack cannot wake spontaneously — its clock only advances
// when it processes work — so the probe is exact, and any peer that
// transmits to it flips its pending count and gets it polled again.
func Pump(stacks ...*Stack) {
	dirty := make([]bool, len(stacks))
	for i := range dirty {
		dirty[i] = true
	}
	for {
		progress := 0
		for i, s := range stacks {
			if !dirty[i] && s.pendingRx() == 0 {
				continue
			}
			moved := s.Poll()
			dirty[i] = moved > 0
			progress += moved
		}
		if progress == 0 {
			// Quiescent: charge any coalesced TX kicks still owed so
			// batched runs account every notification.
			for _, s := range stacks {
				s.Flush()
			}
			return
		}
	}
}
