package cluster

import (
	"testing"

	"taskprune/internal/pet"
	"taskprune/internal/simulator"
	"taskprune/internal/stats"
	"taskprune/internal/workload"
)

// BenchmarkPick times one dispatch decision per routing policy on the
// cluster4-pam-34k shape: the 12×8 SPEC PET split over four datacenters of
// two machines, PAM in each, 34k-level arrivals. The engine is loaded
// through the live API with the first half of an 800-task workload, so
// every datacenter holds executing heads, pending queues and a batch; each
// op is one Pick, at the engine's clock, for one of the held-back arrivals.
// Only Pick is timed, and it leaves the cluster state untouched.
func BenchmarkPick(b *testing.B) {
	matrix := pet.MustBuild(pet.SPECLikeMeans(), pet.DefaultBuildConfig(), stats.NewRNG(0xBEEF))
	tasks, err := workload.Generate(workload.Config{
		NumTasks: 800, Rate: workload.RateForLevel(workload.Level34k), VarFrac: 0.10, Beta: 2.0,
	}, matrix, stats.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	load, probes := tasks[:len(tasks)/2], tasks[len(tasks)/2:]
	for _, name := range PolicyNames() {
		b.Run(name, func(b *testing.B) {
			policy, err := NewPolicy(name)
			if err != nil {
				b.Fatal(err)
			}
			eng, err := New(Config{DCs: 4, Policy: policy, Sim: simulator.MustConfigFor("PAM", matrix)})
			if err != nil {
				b.Fatal(err)
			}
			if err := eng.StartLive(nil); err != nil {
				b.Fatal(err)
			}
			for _, t := range load {
				if err := eng.SubmitLive(t); err != nil {
					b.Fatal(err)
				}
			}
			now := eng.Now()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if dc := policy.Pick(now, probes[i%len(probes)], eng.dcs); dc < 0 {
					b.Fatalf("%s picked no datacenter", name)
				}
			}
		})
	}
}
