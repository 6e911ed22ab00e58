package pet

import (
	"taskprune/internal/pmf"
	"taskprune/internal/task"
)

// View is the read interface every scheduling decision consumes: the
// execution-time distributions a mapper *believes*, as opposed to the
// ground-truth Matrix that drives TrueExec sampling and actual completion
// times. The Matrix itself implements View — the oracle belief, and the
// engine's historical behaviour — while FrozenBelief and OnlineBelief
// serve deliberately imperfect knowledge for the robustness-under-
// stale-PET studies. Every method mirrors the Matrix method of the same
// name, so routing decisions through a View instead of the Matrix is pure
// interface dispatch: no wrapper allocation, and with the Matrix as the
// View the results are bit-identical.
//
// The factor argument is the machine's currently reported degradation
// factor; consumed is the task's banked progress in *nominal* execution
// ticks (task.Task.Consumed). How a belief interprets either — trusting
// them, ignoring them, or substituting learned estimates — is the belief's
// model of the world.
//
// Served entries are immutable, so the scalars schedulers read are
// precomputed on the entry's Profile: the profiled mean is
// ScaledProfile(…).Mean(), an O(1) read rather than a rescan of the dense
// PMF.
type View interface {
	// NumTypes returns the number of task types.
	NumTypes() int
	// NumMachines returns the number of machines (PET columns).
	NumMachines() int
	// ScaledEntry returns the believed entry of type t on machine mi under
	// speed factor (1 = nominal).
	ScaledEntry(t task.Type, mi int, factor float64) *Entry
	// ScaledPMF is ScaledEntry's PMF.
	ScaledPMF(t task.Type, mi int, factor float64) *pmf.PMF
	// ScaledProfile is ScaledEntry's prefix-sum profile. Its Mean is the
	// profiled mean execution time (what a scalar heuristic believes the
	// execution costs), stored when the profile was built.
	ScaledProfile(t task.Type, mi int, factor float64) *pmf.Profile
	// RemainingEntry is ScaledEntry conditioned on consumed nominal ticks
	// of banked progress (X−c | X>c in the factor's time base); consumed
	// <= 0 is exactly ScaledEntry.
	RemainingEntry(t task.Type, mi int, factor float64, consumed int64) *Entry
}

// The Matrix is the oracle View: belief ≡ truth.
var _ View = (*Matrix)(nil)
