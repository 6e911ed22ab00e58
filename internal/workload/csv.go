package workload

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"taskprune/internal/task"
)

// This file round-trips workloads through CSV so that externally captured
// traces can be replayed byte-identically: the schema is
// id,type,arrival,deadline,true_exec_per_machine with the per-machine
// execution times semicolon-separated.

// WriteCSV serializes tasks in arrival order.
func WriteCSV(w io.Writer, tasks []*task.Task) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"id", "type", "arrival", "deadline", "true_exec_per_machine"}); err != nil {
		return err
	}
	for _, t := range tasks {
		execs := make([]string, len(t.TrueExec))
		for i, e := range t.TrueExec {
			execs[i] = strconv.FormatInt(e, 10)
		}
		rec := []string{
			strconv.Itoa(t.ID),
			strconv.Itoa(int(t.Type)),
			strconv.FormatInt(t.Arrival, 10),
			strconv.FormatInt(t.Deadline, 10),
			strings.Join(execs, ";"),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a workload written by WriteCSV (or hand-authored in the
// same schema), validating structure: nMachines execution times per task,
// deadlines after arrivals, non-decreasing arrival order is NOT required
// (tasks are re-sorted), IDs are reassigned in arrival order.
func ReadCSV(r io.Reader, nMachines int) ([]*task.Task, error) {
	cr := csv.NewReader(r)
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("workload: csv: %w", err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("workload: empty csv")
	}
	start := 0
	if records[0][0] == "id" {
		start = 1 // header row
	}
	var tasks []*task.Task
	for line, rec := range records[start:] {
		if len(rec) != 5 {
			return nil, fmt.Errorf("workload: line %d has %d fields, want 5", line+start+1, len(rec))
		}
		typ, err := strconv.Atoi(rec[1])
		if err != nil {
			return nil, fmt.Errorf("workload: line %d type: %w", line+start+1, err)
		}
		arrival, err := strconv.ParseInt(rec[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("workload: line %d arrival: %w", line+start+1, err)
		}
		deadline, err := strconv.ParseInt(rec[3], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("workload: line %d deadline: %w", line+start+1, err)
		}
		if deadline <= arrival {
			return nil, fmt.Errorf("workload: line %d deadline %d <= arrival %d", line+start+1, deadline, arrival)
		}
		parts := strings.Split(rec[4], ";")
		if len(parts) != nMachines {
			return nil, fmt.Errorf("workload: line %d has %d exec times for %d machines", line+start+1, len(parts), nMachines)
		}
		execs := make([]int64, nMachines)
		for i, p := range parts {
			v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("workload: line %d exec %d: %w", line+start+1, i, err)
			}
			if v < 1 {
				return nil, fmt.Errorf("workload: line %d exec %d = %d < 1", line+start+1, i, v)
			}
			execs[i] = v
		}
		t := task.New(0, task.Type(typ), arrival, deadline)
		t.TrueExec = execs
		tasks = append(tasks, t)
	}
	sortByArrival(tasks)
	for i, t := range tasks {
		t.ID = i
	}
	return tasks, nil
}

// sortByArrival orders tasks by (arrival, type) the way Generate does.
func sortByArrival(tasks []*task.Task) {
	sort.SliceStable(tasks, func(i, j int) bool {
		if tasks[i].Arrival != tasks[j].Arrival {
			return tasks[i].Arrival < tasks[j].Arrival
		}
		return tasks[i].Type < tasks[j].Type
	})
}
