package flowcon

// LimitOf returns the limit the cycle last applied to a container, and
// whether one is known. The reference test compares it run by run.
func (c *Cycle) LimitOf(id string) (float64, bool) {
	if k := c.find(id, 0); k >= 0 && c.slots[k].limitSet {
		return c.slots[k].limit, true
	}
	return 0, false
}
