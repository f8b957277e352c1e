package workload

import (
	"fmt"
	"sort"
	"time"

	"p2pm/internal/peer"
)

// schedRunner is the lab's one event loop: it drives the workload,
// quiesces the peers' loops, advances virtual time, admits pending joiners,
// recovers/rejoins departed peers, and injects the graceful-leave and
// crash schedules under the one-outstanding-failure rule. The scenarios
// differ only in what they drive, whom they target and what else they
// inject — those arrive as schedule hooks — so scheduling fixes land
// here once.
type schedRunner struct {
	sys *peer.System
	sup *peer.Supervisor

	pending []string        // workers still to join, in admission order
	away    map[string]bool // gracefully departed, awaiting rejoin
	// ignoreSuspect marks detector suspects whose absence is deliberate
	// (e.g. the partitioned home of the survivability scenario); they
	// never block the one-outstanding-failure rule.
	ignoreSuspect func(string) bool

	timeline  []string
	recoverAt map[string]time.Duration
	rejoinAt  map[string]time.Duration

	driven, crashes, leaves, joins, leaveRepairs int

	crashLog []MemberEvent
	joinLog  []MemberEvent
}

func newSchedRunner(sys *peer.System) *schedRunner {
	return &schedRunner{
		sys:       sys,
		away:      make(map[string]bool),
		recoverAt: make(map[string]time.Duration),
		rejoinAt:  make(map[string]time.Duration),
	}
}

// attach wires the runner to the lab's supervisor and records the
// detector's death/recovery events on the shared timeline. Registered
// after the supervisor's own callbacks, so repairs have already run when
// an entry is appended — the entry order is the supervisor's action
// order.
func (r *schedRunner) attach(sup *peer.Supervisor) {
	r.sup = sup
	sup.Detector().OnDeath(func(p string, at time.Duration) {
		r.note("t=%v dead %s", at, p)
	})
	sup.Detector().OnRecover(func(p string, at time.Duration) {
		r.note("t=%v recovered %s", at, p)
	})
}

func (r *schedRunner) note(format string, args ...any) {
	r.timeline = append(r.timeline, fmt.Sprintf(format, args...))
}

// healthy reports whether no crash is outstanding: the detector's
// confirmed-dead set holds only peers whose absence is deliberate —
// ignored suspects and gracefully departed workers awaiting their rejoin
// — which may not block the one-outstanding-failure rule.
func (r *schedRunner) healthy() bool {
	for _, s := range r.sup.Detector().Suspects() {
		if !r.away[s] && (r.ignoreSuspect == nil || !r.ignoreSuspect(s)) {
			return false
		}
	}
	return true
}

// schedule is one run of the event loop: the cadences (from the
// normalized Common config) plus the scenario's hooks.
type schedule struct {
	c *Common

	// Drive issues event i. An error aborts the run; a scenario that
	// tolerates drive faults (the home-partition case) absorbs them in
	// its closure.
	Drive func(i int) error
	// Victim names the current leave/crash target.
	Victim func() string
	// AfterStep runs right after each clock advance (the home-partition
	// injection point).
	AfterStep func(driven int, now time.Duration)
	// OnJoin runs after each runtime admission; left is the number of
	// joiners still pending.
	OnJoin func(name string, now time.Duration, left int)
}

// sortedDue returns the peers in m whose deadline has passed, sorted, so
// multiple same-tick recoveries/rejoins happen in a deterministic order.
func sortedDue(m map[string]time.Duration, now time.Duration) []string {
	due := make([]string, 0, len(m))
	for name, at := range m {
		if now >= at {
			due = append(due, name)
		}
	}
	sort.Strings(due)
	return due
}

// victimOK: only live workers crash or leave (an operator that fell back
// onto a load-biased peer would take its alerter down with it), only
// while no other failure is outstanding, and never in an undisturbed run
// (no supervisor to repair the damage).
func (r *schedRunner) victimOK(v string) bool {
	return r.sup != nil && isWorker(v) && r.sys.Net.Alive(v) && r.healthy()
}

// run drives the event loop: one workload event per iteration with the
// membership schedules interleaved at their configured cadences.
func (r *schedRunner) run(s schedule) error {
	c := s.c
	for i := 0; i < c.Events; i++ {
		if err := s.Drive(i); err != nil {
			return err
		}
		r.driven++
		// The event is processed before the clock advances, so checkpoints
		// taken on the Step cadence describe it.
		r.sys.Quiesce()
		r.sys.Step(c.Step)
		now := r.sys.Net.Clock().Now()
		if s.AfterStep != nil {
			s.AfterStep(r.driven, now)
		}
		if len(r.pending) > 0 && r.driven%c.JoinEvery == 0 {
			name := r.pending[0]
			r.pending = r.pending[1:]
			if _, err := r.sys.JoinPeer(name, "mgr"); err != nil {
				return fmt.Errorf("workload: admitting %s: %w", name, err)
			}
			r.joins++
			r.joinLog = append(r.joinLog, MemberEvent{Peer: name, At: now})
			r.note("t=%v join %s", now, name)
			if s.OnJoin != nil {
				s.OnJoin(name, now, len(r.pending))
			}
		}
		for _, peerName := range sortedDue(r.recoverAt, now) {
			r.sys.Net.Recover(peerName) //nolint:errcheck // known node
			delete(r.recoverAt, peerName)
		}
		for _, peerName := range sortedDue(r.rejoinAt, now) {
			// The leaver's process restarts, then asks to rejoin.
			r.sys.Net.Recover(peerName) //nolint:errcheck // known node
			if _, err := r.sys.JoinPeer(peerName, "mgr"); err != nil {
				return fmt.Errorf("workload: re-admitting %s after its leave: %w", peerName, err)
			}
			delete(r.rejoinAt, peerName)
			r.away[peerName] = false
			r.note("t=%v rejoin %s", now, peerName)
		}
		if c.LeaveEvery > 0 && r.driven%c.LeaveEvery == 0 {
			leaver := s.Victim()
			// Like the crash schedule: one departure at a time, and only
			// while the pool is otherwise healthy.
			if r.victimOK(leaver) && len(r.rejoinAt) == 0 {
				r.sys.Quiesce()
				evs, err := r.sys.LeavePeer(leaver)
				if err != nil {
					return fmt.Errorf("workload: %s leaving gracefully: %w", leaver, err)
				}
				// Having handed off, the leaver's process stops.
				r.sys.Net.Crash(leaver) //nolint:errcheck // known node
				for _, ev := range evs {
					if ev.Repaired() {
						r.leaveRepairs++
					}
				}
				r.leaves++
				r.note("t=%v leave %s", now, leaver)
				r.away[leaver] = true
				r.rejoinAt[leaver] = now + c.MTTR
			}
		}
		if c.CrashEvery > 0 && r.driven%c.CrashEvery == 0 {
			victim := s.Victim()
			// Only one outstanding crash: skip if the pool is still
			// healing from the last one. Let the pipeline drain first:
			// virtual time between events means earlier events are long
			// delivered when the crash strikes, so the measured loss is
			// the outage window itself, not a scheduling artifact.
			if r.victimOK(victim) {
				r.sys.Quiesce()
				r.sys.Net.Crash(victim) //nolint:errcheck // known node
				r.crashes++
				r.crashLog = append(r.crashLog, MemberEvent{Peer: victim, At: now})
				r.note("t=%v crash %s", now, victim)
				r.recoverAt[victim] = now + c.MTTR
			}
		}
	}
	return nil
}
