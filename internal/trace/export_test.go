package trace

// BuildZipf exposes the uncached table build to the external tests.
var BuildZipf = buildZipf

// CDF exposes a table's cumulative distribution to the external tests.
func (z *Zipf) CDF() []float64 { return z.cdf }
