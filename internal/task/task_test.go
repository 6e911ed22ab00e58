package task

import (
	"strings"
	"testing"
)

func TestNewDefaults(t *testing.T) {
	tk := New(3, Type(2), 100, 250)
	if tk.ID != 3 || tk.Type != 2 || tk.Arrival != 100 || tk.Deadline != 250 {
		t.Errorf("unexpected fields: %+v", tk)
	}
	if tk.State != StatePending {
		t.Errorf("State = %v, want pending", tk.State)
	}
	if tk.Machine != -1 {
		t.Errorf("Machine = %d, want -1 (unmapped)", tk.Machine)
	}
}

func TestExpired(t *testing.T) {
	tk := New(0, 0, 0, 100)
	// Completion exactly at the deadline succeeds (Eq. 1 uses t <= δ), so
	// expiry must be strict.
	if tk.Expired(100) {
		t.Error("task expired exactly at deadline; expiry must be strict")
	}
	if !tk.Expired(101) {
		t.Error("task not expired after deadline")
	}
}

// TestRemaining: a task carrying Consumed credit owes only the rest of its
// true execution time, and never less than one tick.
func TestRemaining(t *testing.T) {
	tk := New(0, 0, 0, 100)
	tk.TrueExec = []int64{40, 40}
	tk.Consumed = 25
	if got := tk.Remaining(0); got != 15 {
		t.Errorf("Remaining = %d, want 15", got)
	}
	tk.Consumed = 45 // credit banked on a machine where the task runs longer
	if got := tk.Remaining(0); got != 1 {
		t.Errorf("over-consumed Remaining = %d, want 1 (floor)", got)
	}
}

func TestDone(t *testing.T) {
	tk := New(0, 0, 0, 100)
	cases := []struct {
		state State
		done  bool
	}{
		{StatePending, false},
		{StateQueued, false},
		{StateRunning, false},
		{StateCompleted, true},
		{StateMissed, true},
		{StateDropped, true},
	}
	for _, c := range cases {
		tk.State = c.state
		if tk.Done() != c.done {
			t.Errorf("%v: Done = %v, want %v", c.state, tk.Done(), c.done)
		}
	}
}

func TestStateString(t *testing.T) {
	want := map[State]string{
		StatePending:   "pending",
		StateQueued:    "queued",
		StateRunning:   "running",
		StateCompleted: "completed",
		StateMissed:    "missed",
		StateDropped:   "dropped",
		State(99):      "State(99)",
	}
	for s, str := range want {
		if got := s.String(); got != str {
			t.Errorf("State(%d).String() = %q, want %q", int(s), got, str)
		}
	}
}

func TestTaskString(t *testing.T) {
	tk := New(7, Type(3), 10, 20)
	s := tk.String()
	for _, frag := range []string{"id=7", "type=3", "arr=10", "dl=20", "pending"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
}
