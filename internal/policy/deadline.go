package policy

import (
	"fmt"
	"sort"

	"clocksched/internal/cpu"
	"clocksched/internal/sim"
)

// This file implements the direction the paper's Conclusions point to as
// future work: "Our immediate future work is to provide 'deadline'
// mechanisms in Linux. These deadlines are not precisely the same mechanism
// needed in a true real-time O/S – in a RTOS, the application does not care
// if the deadline is reached early, while energy scheduling would prefer
// for the deadline to be met as late as possible."
//
// DeadlineScheduler is that mechanism: applications submit (work, due-time)
// jobs, and at every quantum the scheduler picks the *slowest* clock step
// that still finishes every job by its deadline — meeting deadlines as late
// as possible, which is exactly where the energy is.

// job is one submitted obligation.
type job struct {
	id int
	// release is when the work arrived; only the zoo's AVR and BKP rules
	// read it.
	release, due sim.Time
	// cycles is the job's remaining work, expressed in worst-case
	// (fastest-step) processor cycles; memory-heavy work costs the most
	// cycles at the top step, so this is the conservative estimate. orig
	// is the work as submitted, for the zoo's AVR and BKP densities.
	cycles, orig int64
	// overdue marks a job whose deadline passed while still pending. The
	// work still has to be done (the application keeps computing it), so
	// an overdue job pins the clock at the top step until the
	// application reports completion — dropping it silently would leave
	// no demand signal and strand the clock at the bottom while the
	// application ran ever later.
	overdue     bool
	synthesized bool // the zoo's utilization-derived work, not an app's
}

// jobSet is the due-sorted pending work both deadline-driven schedulers
// (DeadlineScheduler and ZooScheduler) keep, with the bookkeeping they
// share: completion, the busy-cycle retire estimate, overdue marking, and
// the OA max-density speed rule.
type jobSet struct {
	jobs []job // sorted by due

	// Expired counts jobs whose deadlines passed before completion.
	Expired int
}

// insert adds a job in due order, after any job due at the same time.
func (js *jobSet) insert(j job) {
	at := sort.Search(len(js.jobs), func(i int) bool { return js.jobs[i].due > j.due })
	js.jobs = append(js.jobs, job{})
	copy(js.jobs[at+1:], js.jobs[at:])
	js.jobs[at] = j
}

// Complete removes a job the application has finished (whether or not the
// scheduler's own estimate had retired it). Unknown ids are ignored.
func (js *jobSet) Complete(id int) {
	for i, j := range js.jobs {
		if j.id == id {
			js.jobs = append(js.jobs[:i], js.jobs[i+1:]...)
			return
		}
	}
}

// Pending returns the number of outstanding jobs.
func (js *jobSet) Pending() int { return len(js.jobs) }

// busyCycles estimates the cycles executed during the last quantum: busy
// time × the clock rate that was in effect.
func busyCycles(utilPP10K int, quantum sim.Duration, s cpu.Step) int64 {
	busyMicros := int64(utilPP10K) * int64(quantum) / FullUtil
	return busyMicros * s.KHz() / 1000
}

// retire deducts executed cycles from the earliest-due jobs.
func (js *jobSet) retire(cycles int64) {
	for len(js.jobs) > 0 && cycles > 0 {
		if js.jobs[0].cycles > cycles {
			js.jobs[0].cycles -= cycles
			return
		}
		cycles -= js.jobs[0].cycles
		js.jobs = js.jobs[1:]
	}
}

// markExpired flags jobs whose deadlines have passed. They stay pending —
// and pin the clock — until the application completes them or the retire
// estimate drains them.
func (js *jobSet) markExpired(now sim.Time) {
	for i := range js.jobs {
		if js.jobs[i].due > now {
			break // sorted by due: nothing later is expired either
		}
		if !js.jobs[i].overdue {
			js.jobs[i].overdue = true
			js.Expired++
		}
	}
}

// oaKHz is the Optimal Available rule, DeadlineScheduler.RequiredKHz and
// the zoo's OA alike.
func (js *jobSet) oaKHz(now sim.Time) int64 {
	var needKHz int64
	var cum int64
	for _, j := range js.jobs {
		cum += j.cycles
		horizon := int64(j.due - now)
		if horizon <= 0 {
			return cpu.MaxStep.KHz()
		}
		// kHz = cycles×1000 / µs, rounded up.
		need := (cum*1000 + horizon - 1) / horizon
		if need > needKHz {
			needKHz = need
		}
	}
	return needKHz
}

// DeadlineScheduler is a kernel speed policy driven by application-supplied
// deadlines instead of utilization prediction. It satisfies the kernel's
// SpeedPolicy interface.
type DeadlineScheduler struct {
	jobSet
	nextID int
	// VoltageScale drops the core to 1.23 V when the chosen step allows.
	VoltageScale bool
	// Quantum must match the kernel's scheduling quantum; the default is
	// the Linux 10 ms.
	Quantum sim.Duration
}

// NewDeadlineScheduler returns a scheduler for the standard 10 ms quantum.
func NewDeadlineScheduler() *DeadlineScheduler {
	return &DeadlineScheduler{Quantum: sim.Quantum}
}

// Submit registers work that must finish by due and returns a job id. A
// non-positive cycle count or an id of already-passed work is legal and
// simply never constrains the speed.
func (d *DeadlineScheduler) Submit(cycles int64, due sim.Time) int {
	d.nextID++
	if cycles > 0 {
		d.insert(job{id: d.nextID, due: due, cycles: cycles, orig: cycles})
	}
	return d.nextID
}

// RequiredKHz returns the minimum clock rate that completes every pending
// job by its deadline, assuming the processor runs the jobs back to back:
// the maximum over deadlines d of (cycles due by d) / (d − now). Any
// overdue job demands the top step.
func (d *DeadlineScheduler) RequiredKHz(now sim.Time) int64 { return d.oaKHz(now) }

// OnQuantum implements the kernel's SpeedPolicy interface.
func (d *DeadlineScheduler) OnQuantum(now sim.Time, utilPP10K int, cur cpu.Step, _ cpu.Voltage) (cpu.Step, cpu.Voltage) {
	d.retire(busyCycles(utilPP10K, d.Quantum, cur))
	d.markExpired(now)
	step := cpu.StepForKHz(d.oaKHz(now))
	return step, voltageFor(d.VoltageScale, step)
}

// Name identifies the policy.
func (d *DeadlineScheduler) Name() string {
	if d.VoltageScale {
		return "DEADLINE, voltage scaling"
	}
	return "DEADLINE"
}

// String summarizes the scheduler state for debugging.
func (d *DeadlineScheduler) String() string {
	return fmt.Sprintf("deadline{pending=%d expired=%d}", len(d.jobs), d.Expired)
}
