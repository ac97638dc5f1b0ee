package replay

import (
	"context"
	"testing"

	"ibsim/internal/cache"
	"ibsim/internal/fetch"
	"ibsim/internal/memsys"
	"ibsim/internal/synth"
	"ibsim/internal/trace"
)

// BenchmarkReplayBank replays one 1M-instruction workload through two
// banks: Table 8's twelve stream engines (two content classes) and the
// six-engine blocking/prefetch/bypass/stream bank ibsbench's serve-hot
// workload posts to ibsimd (four content classes).
func BenchmarkReplayBank(b *testing.B) {
	p, err := synth.Lookup("verilog")
	if err != nil {
		b.Fatal(err)
	}
	refs, err := synth.InstrTrace(p, 0, 1_000_000)
	if err != nil {
		b.Fatal(err)
	}
	runs := trace.Compact(refs)
	dm := func(size, line int) cache.Config { return cache.Config{Size: size, LineSize: line, Assoc: 1} }
	economy, l1l2 := memsys.Economy().Memory, memsys.L1L2Link()
	banks := []struct {
		name string
		mk   func() ([]fetch.Engine, error)
	}{
		{"table8", func() ([]fetch.Engine, error) {
			var engines []fetch.Engine
			for _, d := range []int{0, 1, 3, 6, 12, 18} {
				for _, line := range []int{16, 32} {
					e, err := fetch.NewStream(dm(8192, line), memsys.Transfer{Latency: 6, BytesPerCycle: line}, d)
					if err != nil {
						return nil, err
					}
					engines = append(engines, e)
				}
			}
			return engines, nil
		}},
		{"serve-hot", func() ([]fetch.Engine, error) {
			var engines []fetch.Engine
			for _, mk := range []func() (fetch.Engine, error){
				func() (fetch.Engine, error) { return fetch.NewBlocking(dm(8192, 32), economy, 0) },
				func() (fetch.Engine, error) { return fetch.NewBlocking(dm(8192, 32), economy, 3) },
				func() (fetch.Engine, error) { return fetch.NewBypass(dm(8192, 32), economy, 3) },
				func() (fetch.Engine, error) { return fetch.NewStream(dm(8192, 32), l1l2, 6) },
				func() (fetch.Engine, error) { return fetch.NewBlocking(dm(8192, 64), economy, 0) },
				func() (fetch.Engine, error) { return fetch.NewStream(dm(8192, 16), l1l2, 4) },
			} {
				e, err := mk()
				if err != nil {
					return nil, err
				}
				engines = append(engines, e)
			}
			return engines, nil
		}},
	}
	for _, bk := range banks {
		b.Run(bk.name, func(b *testing.B) {
			b.SetBytes(int64(len(refs)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				engines, err := bk.mk()
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := Replay(context.Background(), runs, engines); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
