package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"pvsim/internal/mc"
)

// runMC implements `pvsim mc`: run the model checker's two explorers —
// every schedule of a small sweep grid (with and without injected
// cancellation) and every event ordering of a tiny PVProxy — at bounded
// budgets, printing explored counts. A counterexample prints its decision
// trail and a replay command, and exits nonzero; -replay-schedule and
// -replay-state re-run a single printed seed with a full trace.
func runMC(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pvsim mc", flag.ContinueOnError)
	budget := fs.Int("budget", mc.DefaultBudget, "max schedules/states per explorer")
	jobs := fs.Int("jobs", 3, "schedule explorer: grid jobs")
	workers := fs.Int("workers", 2, "schedule explorer: sequenced worker-pool width")
	noCancel := fs.Bool("nocancel", false, "schedule explorer: skip the cancellation-injection pass")
	sets := fs.Int("sets", 4, "state explorer: backing-table sets")
	entries := fs.Int("entries", 2, "state explorer: PVCache entries")
	mshrs := fs.Int("mshrs", 1, "state explorer: MSHRs")
	accesses := fs.Int("accesses", 6, "state explorer: seed-trace length")
	traceSeed := fs.Uint64("trace-seed", 1, "state explorer: seed deriving the access trace")
	replaySchedule := fs.String("replay-schedule", "", "replay one schedule by its counterexample seed")
	replayState := fs.String("replay-state", "", "replay one proxy event path by its counterexample seed")
	replayCancel := fs.Bool("cancel", false, "with -replay-schedule: the seed came from the cancellation pass")
	verbose := fs.Bool("v", false, "log per-explorer progress to stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("mc: unexpected arguments %v", fs.Args())
	}

	var log func(format string, args ...interface{})
	if *verbose {
		log = func(f string, a ...interface{}) { fmt.Fprintf(os.Stderr, f+"\n", a...) }
	}
	schedOpts := mc.ScheduleOptions{Jobs: *jobs, Workers: *workers, Budget: *budget, Log: log}
	stateOpts := mc.StateOptions{
		Sets: *sets, Entries: *entries, MSHRs: *mshrs,
		Accesses: *accesses, TraceSeed: *traceSeed, Budget: *budget, Log: log,
	}

	if *replaySchedule != "" {
		schedOpts.Cancel = *replayCancel
		trace, err := mc.ReplaySchedule(schedOpts, *replaySchedule)
		return printReplay(stdout, "schedule", *replaySchedule, trace, err)
	}
	if *replayState != "" {
		trace, err := mc.ReplayState(stateOpts, *replayState)
		return printReplay(stdout, "state path", *replayState, trace, err)
	}

	type pass struct {
		name string
		run  func() (mc.Report, error)
	}
	passes := []pass{
		{"schedules", func() (mc.Report, error) { return mc.ExploreSchedules(schedOpts) }},
	}
	if !*noCancel {
		cancelOpts := schedOpts
		cancelOpts.Cancel = true
		passes = append(passes, pass{"schedules+cancel", func() (mc.Report, error) { return mc.ExploreSchedules(cancelOpts) }})
	}
	passes = append(passes, pass{"states", func() (mc.Report, error) { return mc.ExploreStates(stateOpts) }})

	for _, p := range passes {
		rep, err := p.run()
		if err != nil {
			return fmt.Errorf("mc: %s: %w", p.name, err)
		}
		suffix := ""
		if rep.Paths > 0 {
			suffix = fmt.Sprintf(", %d quiescent paths", rep.Paths)
		}
		if rep.Truncated {
			suffix += fmt.Sprintf(" [budget %d exhausted]", *budget)
		}
		fmt.Fprintf(stdout, "mc %-17s explored %d%s\n", p.name+":", rep.Explored, suffix)
		if rep.Cex != nil {
			fmt.Fprintf(stdout, "\n%s\n", rep.Cex)
			replayFlag := "-replay-state"
			extra := ""
			switch p.name {
			case "schedules", "schedules+cancel":
				replayFlag = "-replay-schedule"
				if p.name == "schedules+cancel" {
					extra = " -cancel"
				}
			}
			fmt.Fprintf(stdout, "replay with: pvsim mc %s %s%s\n", replayFlag, rep.Cex.Seed, extra)
			return fmt.Errorf("mc: %s: counterexample found (seed %s)", p.name, rep.Cex.Seed)
		}
	}
	return nil
}

// printReplay renders one replayed run's trace and verdict.
func printReplay(w io.Writer, what, seed string, trace []string, err error) error {
	fmt.Fprintf(w, "replaying %s %s:\n", what, seed)
	for i, t := range trace {
		fmt.Fprintf(w, "  %3d. %s\n", i, t)
	}
	if err != nil {
		fmt.Fprintf(w, "failed: %v\n", err)
		return fmt.Errorf("mc: replayed %s fails", what)
	}
	fmt.Fprintln(w, "passed")
	return nil
}
