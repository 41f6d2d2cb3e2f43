package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

func TestCtxSend(t *testing.T) {
	analysistest.Run(t, "testdata/src", analysis.CtxSend, "ingest", "reader/fanout")
}
