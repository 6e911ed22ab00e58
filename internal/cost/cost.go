// Package cost implements the paper's cloud cost model (Section VII-F):
// Amazon EC2 on-demand prices are mapped onto the simulated machines,
// machine busy time is billed at those rates, and the reported metric is
// dollars spent divided by the robustness achieved.
package cost

// Substitution note (DESIGN.md §5): the paper cites 2018 AWS pricing for
// its eight machines. The exact mapping from the eight physical SPEC
// machines to instance types is not given, so we bill each machine at a
// representative 2018 us-east-1 on-demand rate spanning the same ~6× price
// spread the EC2 families exhibit (from t3/m5-class up to GPU-class
// instances). Only relative prices matter to the Fig. 8 comparison.

// TicksPerHour converts simulation ticks (≈ 1 ms) into billable hours.
const TicksPerHour = 3_600_000.0

// SPECMachinePrices returns dollars-per-hour for the eight main-workload
// machines, ordered by machine ID.
func SPECMachinePrices() []float64 {
	return []float64{
		0.096, // m5.large-class general purpose
		0.085, // c5.large-class compute optimized
		0.133, // r5.large-class memory optimized
		0.192, // m5.xlarge-class
		0.170, // c5.xlarge-class
		0.266, // r5.xlarge-class
		0.526, // g3s.xlarge-class GPU
		0.900, // p2.xlarge-class GPU
	}
}

// VideoMachinePrices returns dollars-per-hour for the four video-workload
// VM types (cpu-opt, mem-opt, general, gpu), mirroring the EC2 families
// the paper's Fig. 9 fleet uses.
func VideoMachinePrices() []float64 {
	return []float64{0.170, 0.266, 0.192, 0.900}
}

// Total bills a set of per-machine busy tick counts at the given prices.
func Total(busyTicks []int64, prices []float64) float64 {
	if len(busyTicks) != len(prices) {
		panic("cost: busyTicks/prices length mismatch")
	}
	var sum float64
	for i, b := range busyTicks {
		sum += float64(b) / TicksPerHour * prices[i]
	}
	return sum
}
