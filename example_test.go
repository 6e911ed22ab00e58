package taskprune_test

import (
	"fmt"

	"taskprune"
)

// ExampleNewScenario runs PAM through the churn scenario from the README:
// machine 2 fails at tick 1200 with its tasks requeued and recovers at
// tick 2600, and machine 0 runs at half speed from tick 900.
func ExampleNewScenario() {
	matrix := taskprune.SPECPET()
	sc := taskprune.NewScenario("churn").
		FailAt(1200, 2, taskprune.RequeueOnFailure).
		RecoverAt(2600, 2).
		DegradeAt(900, 0, 2)
	cfg := taskprune.MustConfigFor("PAM", matrix)
	cfg.Scenario = sc

	sim, err := taskprune.NewSimulator(cfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	tasks := taskprune.MustGenerateWorkload(taskprune.WorkloadConfig{
		NumTasks: 400, Rate: taskprune.RateForLevel(taskprune.Level34k), VarFrac: 0.10, Beta: 2.0,
	}, matrix, taskprune.NewRNG(7))
	st, err := sim.Run(tasks)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("%d tasks, robustness %.1f%%\n", st.Total, st.RobustnessPct)
	// Output: 400 tasks, robustness 43.0%
}

// ExampleStepRate shapes one workload with the README's three rate
// functions and prints when its last task arrives under each.
func ExampleStepRate() {
	matrix := taskprune.SPECPET()
	cfg := taskprune.WorkloadConfig{
		NumTasks: 1000, Rate: taskprune.RateForLevel(taskprune.Level34k), VarFrac: 0.10, Beta: 2.0,
	}
	lastArrival := func() int64 {
		tasks := taskprune.MustGenerateWorkload(cfg, matrix, taskprune.NewRNG(1))
		return tasks[len(tasks)-1].Arrival
	}
	fmt.Println("flat:   ", lastArrival())
	cfg.RateFn = taskprune.StepRate(taskprune.Burst{Start: 100, End: 400, Factor: 2}) // bursts
	fmt.Println("burst:  ", lastArrival())
	cfg.RateFn = taskprune.RampRate(1000, 5000, 1, 3) // contention ramp
	fmt.Println("ramp:   ", lastArrival())
	cfg.RateFn = taskprune.DiurnalRate(86_400_000, 0.6) // sinusoidal day/night cycle
	fmt.Println("diurnal:", lastArrival())
	// Output:
	// flat:    5162
	// burst:   4875
	// ramp:    3555
	// diurnal: 5161
}
