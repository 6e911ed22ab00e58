package machine

import (
	"testing"

	"taskprune/internal/pet"
	"taskprune/internal/pmf"
	"taskprune/internal/pruner"
	"taskprune/internal/stats"
	"taskprune/internal/task"
)

// tailSink keeps the benchmarked walks' results live.
var tailSink *pmf.PMF

// BenchmarkTailPMF times one walk of a full six-slot queue on a SPEC
// machine: a head started 20 ticks before the clock and five pending
// tasks, task k due 0.6·(k+1) grand-mean executions after the clock.
// tail-walk is a tail rebuild (nil verdict: each pending task is one chain
// step). pruner-walk is an engaged default pruner's pass: the verdict reads
// each task's success and, where the band leaves the verdict open, its
// completion skewness, as the simulator's does, but keeps every task so
// the queue stays full. Of the six verdicts, two are decided keeps, two
// decided drops and two need the skewness, which then drops them too
// (drops/op reads 4).
func BenchmarkTailPMF(b *testing.B) {
	matrix := pet.MustBuild(pet.SPECLikeMeans(), pet.DefaultBuildConfig(), stats.NewRNG(0x5EC))
	const now = 10_000
	grand := matrix.GrandMean()
	rng := stats.NewRNG(34)
	m := New(0, "m", 6, 0)
	for k := range 6 {
		tk := task.New(k, task.Type(rng.Intn(matrix.NumTypes())), 0, now+int64(0.6*float64(k+1)*grand))
		if err := m.Enqueue(tk); err != nil {
			b.Fatal(err)
		}
		if k == 0 {
			m.StartNext(now - 20)
		}
	}
	p := pruner.New(pruner.DefaultConfig())
	p.ObserveMappingEvent(100)
	var drops int
	verdict := func(t *task.Task, pos int, success float64, dist *pmf.PMF) bool {
		drop, decided := p.DecideBySuccess(success, pos, 0)
		if !decided {
			drop = p.ShouldDrop(success, dist.BoundedSkewness(), pos, 0)
		}
		if drop {
			drops++
		}
		return false
	}
	a := pmf.NewArena()
	for _, c := range []struct {
		name    string
		verdict func(*task.Task, int, float64, *pmf.PMF) bool
	}{{"tail-walk", nil}, {"pruner-walk", verdict}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			drops = 0
			for i := 0; i < b.N; i++ {
				a.Reset()
				tailSink = m.TailPMF(a, now, matrix, pmf.Evict, pmf.DefaultMaxImpulses, c.verdict)
			}
			if m.QueueLen() != 6 {
				b.Fatalf("queue holds %d tasks, want 6", m.QueueLen())
			}
			b.ReportMetric(float64(drops)/float64(b.N), "drops/op")
		})
	}
}
