package trace

// BuildZipf exposes the uncached table build to the external tests.
var BuildZipf = buildZipf

// CDF exposes a table's cumulative distribution to the external tests.
func (z *Zipf) CDF() []float64 { return z.cdf }

// Search exposes the guided rank search Sample runs on its uniform draw.
func (z *Zipf) Search(u float64) int { return z.search(u) }

// GuideLen returns the number of guide buckets.
func (z *Zipf) GuideLen() int { return len(z.guide) }
