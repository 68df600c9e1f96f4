package dist

// ParkedLeases reports how many lease calls the coordinator holds open
// right now, their load-shedding slots given back.
func (c *Coordinator) ParkedLeases() int { return int(c.parked.Load()) }
