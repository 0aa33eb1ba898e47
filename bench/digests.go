package bench

// pinned holds each workload's output digest at DefaultSeed and full size:
// the sha256 over the outputs of its first minOps ops. A run at DefaultSeed
// that reads anything else is not correct. The serve workloads share one
// digest, because a sharded sweep answers the same bytes as a local one.
var pinned = map[string]string{
	"run-pv8":       "fe1d635883fd3dd13f58d433160f2d237637341c6fe53e1234b0f90a8acf5825",
	"sweep-timing":  "e3bb07522588787b728da1c7515a189f7d0576c4a10110a502d6f22495947e67",
	"serve-local":   "d78d12dc4519a321d240f8e4b6ee48a04a67066bd8e5a57a4081c11da89709bc",
	"serve-sharded": "d78d12dc4519a321d240f8e4b6ee48a04a67066bd8e5a57a4081c11da89709bc",
}
