package netstack

// Pump drives a set of stacks to quiescence, the tests' world scheduler
// connecting client and server stacks over a uknetdev pair: it polls
// every stack in turn until a whole round moves nothing, then charges
// any coalesced TX kick still owed so batched runs account every
// notification. Polling a quiescent stack costs nothing — an empty RX
// ring charges no cycles and its clock, which only advances when it
// processes work, fires no timer — so a round that re-polls one changes
// no count. Programs drive their worlds with closedloop.World.Pump.
func Pump(stacks ...*Stack) {
	for {
		progress := 0
		for _, s := range stacks {
			progress += s.Poll()
		}
		if progress == 0 {
			for _, s := range stacks {
				s.Flush()
			}
			return
		}
	}
}
