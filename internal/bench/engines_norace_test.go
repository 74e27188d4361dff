//go:build !race

package bench

import "dpc/internal/engine"

// The reference engine on quick E3 alone runs for about half a minute, and
// four times that under the race detector, so the cross-engine passes of
// TestAllExperimentsQuick are compiled into non-race test binaries only.
func init() {
	extraEngines = map[string]engine.Options{
		"reference": {Reference: true},
	}
}
