package sim

// InboxLen reports the depth of p's inbox, for the external tests that
// check the inbox gauge against it.
func InboxLen(p *Proc) int { return len(p.inbox) }
