package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

func TestChargedSend(t *testing.T) {
	analysistest.Run(t, "testdata/src", analysis.ChargedSend, "netrun", "fanout")
}
