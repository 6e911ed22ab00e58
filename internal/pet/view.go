package pet

import "taskprune/internal/task"

// View is the read interface every scheduling decision consumes: the
// execution-time distributions a mapper *believes*, as opposed to the
// ground-truth Matrix that drives TrueExec sampling and actual completion
// times. The Matrix itself implements View — the oracle belief, and the
// engine's historical behaviour — while FrozenBelief and OnlineBelief
// serve deliberately imperfect knowledge for the robustness-under-
// stale-PET studies. Routing decisions through a View instead of the
// Matrix is pure interface dispatch: no wrapper allocation, and with the
// Matrix as the View the results are bit-identical.
//
// The factor argument is the machine's currently reported degradation
// factor; consumed is the task's banked progress in *nominal* execution
// ticks (task.Task.Consumed). How a belief interprets either — trusting
// them, ignoring them, or substituting learned estimates — is the belief's
// model of the world.
//
// Served entries are immutable, so the scalars schedulers read are
// precomputed on the entry's Profile: the profiled mean is
// Entry(…).Prof.Mean(), an O(1) read rather than a rescan of the dense
// PMF.
type View interface {
	// Entry returns the believed entry of type t on machine mi under speed
	// factor (1 = nominal), conditioned on consumed nominal ticks of banked
	// progress (X−c | X>c in the factor's time base); consumed <= 0 is the
	// unconditioned entry.
	Entry(t task.Type, mi int, factor float64, consumed int64) *Entry
}

// The Matrix is the oracle View: belief ≡ truth.
var _ View = (*Matrix)(nil)
