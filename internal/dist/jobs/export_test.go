package jobs

// ParkedLeases reports how many lease calls the service holds open
// right now, their load-shedding slots given back.
func (s *Server) ParkedLeases() int { return int(s.parked.Load()) }
