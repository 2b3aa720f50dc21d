package sketch

// CountMin is a count–min sketch of saturating 8-bit counters, the
// approximate k-mer counter behind digital normalization. Row i's cell is
// selected by double hashing (h1 + i·h2, range-reduced per row), so a key
// is mixed once for the whole sketch instead of once per row. Not safe for
// concurrent use.
type CountMin struct {
	width uint64
	depth int
	rows  []uint8 // depth × width, row-major
}

// NewCountMin returns a width×depth sketch.
func NewCountMin(width, depth int) *CountMin {
	return &CountMin{
		width: uint64(width),
		depth: depth,
		rows:  make([]uint8, uint64(width)*uint64(depth)),
	}
}

// cell returns the flat index of the key's counter in row d.
func (c *CountMin) cell(h1, h2 uint64, d int) uint64 {
	return uint64(d)*c.width + reduce(h1+uint64(d)*h2, c.width)
}

// Estimate returns the key's count estimate: the minimum over rows, which
// can only overestimate the true count.
func (c *CountMin) Estimate(h1, h2 uint64) uint8 {
	est := uint8(255)
	for d := 0; d < c.depth; d++ {
		if v := c.rows[c.cell(h1, h2, d)]; v < est {
			est = v
		}
	}
	return est
}

// Add increments the key's count (saturating, conservative update: only
// rows at the current minimum are bumped, reducing overestimates).
func (c *CountMin) Add(h1, h2 uint64) {
	est := c.Estimate(h1, h2)
	if est == 255 {
		return
	}
	for d := 0; d < c.depth; d++ {
		if p := &c.rows[c.cell(h1, h2, d)]; *p == est {
			*p = est + 1
		}
	}
}
