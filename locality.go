package ibsim

import "ibsim/internal/locality"

// LocalityAnalysis accumulates the locality statistics that determine cache
// behavior: LRU stack-distance histograms (yielding the miss ratio of any
// fully-associative LRU cache size in one pass), working-set sizes,
// sequential run lengths, and per-domain code footprints.
type LocalityAnalysis = locality.Analysis

// AnalyzeLocality characterizes a reference stream (instruction fetches
// only) at the given line granularity.
func AnalyzeLocality(refs []Ref, lineSize int) (*LocalityAnalysis, error) {
	return locality.Analyze(lineSize, refs)
}

// AnalyzeWorkloadLocality generates n instructions of w and characterizes
// them.
func AnalyzeWorkloadLocality(w Workload, lineSize int, n int64) (*LocalityAnalysis, error) {
	refs, err := GenerateInstructionTrace(w, n)
	if err != nil {
		return nil, err
	}
	return AnalyzeLocality(refs, lineSize)
}
