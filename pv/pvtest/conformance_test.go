package pvtest

import (
	"testing"

	_ "pvsim/pv/predictors" // register sms, stride, btb
)

// TestConformance runs the generic suite against every built-in predictor
// family. New families join automatically once their package registers
// itself (directly or via pvsim/pv/predictors).
func TestConformance(t *testing.T) {
	Run(t)
}
