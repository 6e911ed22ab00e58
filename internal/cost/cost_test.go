package cost

import (
	"math"
	"testing"
)

func TestSPECMachinePrices(t *testing.T) {
	prices := SPECMachinePrices()
	if len(prices) != 8 {
		t.Fatalf("got %d prices, want 8 machines", len(prices))
	}
	lo, hi := prices[0], prices[0]
	for _, p := range prices {
		if p <= 0 {
			t.Errorf("non-positive price %v", p)
		}
		if p < lo {
			lo = p
		}
		if p > hi {
			hi = p
		}
	}
	// The EC2 family spread the model relies on: roughly an order of
	// magnitude between cheapest and most expensive.
	if hi/lo < 4 {
		t.Errorf("price spread %v too flat to exercise the cost model", hi/lo)
	}
}

func TestVideoMachinePrices(t *testing.T) {
	prices := VideoMachinePrices()
	if len(prices) != 4 {
		t.Fatalf("got %d prices, want 4 VM types", len(prices))
	}
	// GPU (index 3) must be the most expensive, as on EC2.
	for i := 0; i < 3; i++ {
		if prices[i] >= prices[3] {
			t.Errorf("VM %d priced %v >= GPU %v", i, prices[i], prices[3])
		}
	}
}

func TestTotal(t *testing.T) {
	busy := []int64{TicksPerHour, TicksPerHour / 2}
	prices := []float64{1.0, 2.0}
	if got := Total(busy, prices); math.Abs(got-2.0) > 1e-9 {
		t.Errorf("Total = %v, want 2.0 (1h@$1 + 0.5h@$2)", got)
	}
	if got := Total(nil, nil); got != 0 {
		t.Errorf("empty Total = %v, want 0", got)
	}
}

func TestTotalPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	Total([]int64{1}, []float64{1, 2})
}
