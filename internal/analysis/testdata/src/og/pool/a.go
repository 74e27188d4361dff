// An out-of-scope package: infrastructure that manages the concrete caches
// (pooling) legitimately names them.
package pool

import "metric"

func Keep(dc *metric.DistCache) *metric.DistCache { return dc }
