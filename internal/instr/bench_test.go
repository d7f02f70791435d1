package instr

import "testing"

func BenchmarkPMOp(b *testing.B) {
	tr := NewTracer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.PMOp(SiteID(i))
	}
}

func BenchmarkCallerSite(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = CallerSite(0)
	}
}

// Map densities for the coverage benchmarks. measured is what one
// fuzzing execution hits on the benchmark workloads (about 4 branch and
// 41–48 PM slots); dense500 is a far busier execution.
var mapDensities = []struct {
	name          string
	branch, pmOps int
}{
	{"measured", 4, 45},
	{"dense500", 0, 500},
}

// densityTracer returns a tracer holding one execution's maps at the
// given density.
func densityTracer(branch, pmOps int) *Tracer {
	tr := NewTracer()
	for i := 0; i < branch; i++ {
		tr.Branch(SiteID(i * 7919))
	}
	for i := 0; i < pmOps; i++ {
		tr.PMOp(SiteID(i * 977))
	}
	return tr
}

func BenchmarkVirginMerge(b *testing.B) {
	for _, d := range mapDensities {
		b.Run(d.name, func(b *testing.B) {
			branch, pm := NewVirgin(), NewVirgin()
			tr := densityTracer(d.branch, d.pmOps)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				branch.Merge(tr.BranchMap())
				pm.Merge(tr.PMMap())
			}
		})
	}
}

var sigSink uint64

func BenchmarkSignature(b *testing.B) {
	for _, d := range mapDensities {
		b.Run(d.name, func(b *testing.B) {
			m := densityTracer(d.branch, d.pmOps).PMMap()
			// Signature sorts the hit list in place; restore the
			// first-hit order each iteration so every call sorts as an
			// execution's fresh list does.
			order := append([]uint16(nil), m.hits...)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(m.hits, order)
				sigSink = Signature(m)
			}
		})
	}
}

// BenchmarkTracerReset measures one execution's worth of recording plus
// the Reset that readies the tracer for the next: Reset alone on an
// already-empty tracer would measure nothing.
func BenchmarkTracerReset(b *testing.B) {
	for _, d := range mapDensities {
		b.Run(d.name, func(b *testing.B) {
			tr := NewTracer()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < d.branch; j++ {
					tr.Branch(SiteID(j * 7919))
				}
				for j := 0; j < d.pmOps; j++ {
					tr.PMOp(SiteID(j * 977))
				}
				tr.Reset()
			}
		})
	}
}
