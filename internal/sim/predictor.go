package sim

import "fmt"

func errf(format string, args ...interface{}) error {
	return fmt.Errorf("sim: "+format, args...)
}

// predictor is a bimodal branch predictor: a table of 2-bit saturating
// counters indexed by a hash of the branch's block ID.
type predictor struct {
	mask     uint32
	counters []uint8
}

func newPredictor(entries int) *predictor {
	p := &predictor{mask: uint32(entries - 1), counters: make([]uint8, entries)}
	// Initialize weakly taken, the usual SimpleScalar default.
	for i := range p.counters {
		p.counters[i] = 2
	}
	return p
}

func (p *predictor) index(block int) uint32 {
	return (uint32(block) * 2654435761) & p.mask
}

// predictAndUpdate returns whether the prediction matched the outcome and
// trains the counter.
func (p *predictor) predictAndUpdate(block int, taken bool) bool {
	i := p.index(block)
	c := p.counters[i]
	pred := c >= 2
	if taken && c < 3 {
		p.counters[i] = c + 1
	} else if !taken && c > 0 {
		p.counters[i] = c - 1
	}
	return pred == taken
}

// reset restores the initial weakly-taken state.
func (p *predictor) reset() {
	for i := range p.counters {
		p.counters[i] = 2
	}
}
