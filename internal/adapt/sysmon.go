// Sysmon turns the failure detector's own telemetry into a monitorable
// stream, so the control loop's input is an ordinary P2PML subscription
// rather than a private side channel: deaths and recoveries become
// ActiveXML repository updates on a designated peer, and any peer can
// subscribe to them with axmlCOM like any other monitored source.
package adapt

import (
	"fmt"
	"time"

	"p2pm/internal/peer"
	"p2pm/internal/stream"
	"p2pm/internal/xmltree"
)

// Sysmon publishes a failure detector's death/recover events into the
// host peer's ActiveXML repository. Each event is stored under a fresh
// document name, so the repository alerter emits one create alert per
// event:
//
//	<alert type="axml" doc="sysmon-000001-p3" op="create">
//	  <death peer="p3" at="12.5s"/>
//	</alert>
//
// Subscribe with `for $e in axmlCOM(<p>HOST</p>) return $e by ...` to
// receive them; SysmonQuery builds that text.
func Sysmon(det *peer.GossipDetector, host *peer.Peer) {
	repo := host.Repo()
	seq := 0
	put := func(kind, p string, at time.Duration) {
		seq++
		n := xmltree.Elem(kind)
		n.SetAttr("peer", p)
		n.SetAttr("at", at.String())
		repo.Put(fmt.Sprintf("sysmon-%06d-%s", seq, p), n)
	}
	det.OnDeath(func(p string, at time.Duration) { put("death", p, at) })
	det.OnRecover(func(p string, at time.Duration) { put("recover", p, at) })
}

// SysmonQuery is the P2PML subscription text monitoring a Sysmon host's
// telemetry stream.
func SysmonQuery(host string) string {
	return fmt.Sprintf(`for $e in axmlCOM(<p>%s</p>) return $e by channel sysmon`, host)
}

// SysmonTrigger classifies Sysmon alert items for a Rule: the entity is
// the peer the event concerns, and the event kinds listed in firingOn
// count as firing observations. Items that are not Sysmon alerts map to
// entity "".
func SysmonTrigger(firingOn ...string) func(it stream.Item) (string, bool) {
	fire := make(map[string]bool, len(firingOn))
	for _, k := range firingOn {
		fire[k] = true
	}
	return func(it stream.Item) (string, bool) {
		if it.Tree == nil || it.Tree.Label != "alert" {
			return "", false
		}
		for _, kind := range []string{"death", "recover"} {
			if ev := it.Tree.Child(kind); ev != nil {
				return ev.AttrOr("peer", ""), fire[kind]
			}
		}
		return "", false
	}
}

// QuarantineFlapper builds a Rule that removes a flapping peer from
// aggregation hosting — arm deaths within the window quarantine it, and
// quiet lifts the quarantine. The rebalance that follows each change is
// exactly-once under the replay layer, so the loop may act mid-stream.
func QuarantineFlapper(tun peer.Tuning, arm int, within, quiet time.Duration) Rule {
	return Rule{
		Name:    "quarantine-flapper",
		Trigger: SysmonTrigger("death"),
		Arm:     arm,
		Within:  within,
		Quiet:   quiet,
		Engage:  func(entity string, _ time.Duration) { tun.QuarantineAggHost(entity) },
		Release: func(entity string, _ time.Duration) { tun.LiftQuarantine(entity) },
	}
}

// RaiseReplication builds a Rule that raises the DHT replication degree
// while the system-wide death rate is high, restoring the base degree
// after calm. All deaths map to the single entity "dht".
func RaiseReplication(tun peer.Tuning, base, raised, arm int, within, quiet time.Duration) Rule {
	trig := SysmonTrigger("death")
	return Rule{
		Name: "raise-replication",
		Trigger: func(it stream.Item) (string, bool) {
			if entity, firing := trig(it); entity != "" && firing {
				return "dht", true
			}
			return "", false
		},
		Arm:     arm,
		Within:  within,
		Quiet:   quiet,
		Engage:  func(_ string, _ time.Duration) { tun.SetDHTReplication(raised) },
		Release: func(_ string, _ time.Duration) { tun.SetDHTReplication(base) },
	}
}

// Attach drives a loop from a deployed monitoring task: a System.Step
// hook drains the task's results into Observe and then Ticks the
// hysteresis clock. The loop owns the task's result queue from here on.
func Attach(sys *peer.System, task *peer.Task, l *Loop) {
	sys.OnStep(func(now time.Duration) {
		for {
			it, ok := task.Results().TryPop()
			if !ok {
				break
			}
			l.Observe(it)
		}
		l.Tick(now)
	})
}
