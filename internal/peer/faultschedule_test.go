package peer

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// A fault schedule is a timeline of faults over the relay rig
// (replay_test.go): crash, recover, partition, heal, drop and delay on
// the rig's four worker links, each striking after one of the rig's
// events. FuzzFaultSchedule decodes one from bytes, so the fuzzer's
// search and minimizer work on schedules, and a corpus entry is a
// schedule.

// scheduleEvents is how many events a schedule drives through the rig.
const scheduleEvents = 20

// maxFaultOps caps a schedule's length, so one input stays one short run.
const maxFaultOps = 24

const (
	faultCrash     = iota // crash the worker
	faultRecover          // recover the worker
	faultPartition        // split the link's two ends
	faultHeal             // remove the partition
	faultDrop             // the link loses level/10 of its messages
	faultUndrop           // the link stops losing
	faultDelay            // the link adds level×300 ms
	faultUndelay          // the link stops adding delay
)

var (
	faultWorkers = [2]string{"w1", "w2"}
	faultLinks   = [4][2]string{{"src", "w1"}, {"w1", "mgr"}, {"src", "w2"}, {"w2", "mgr"}}
	faultNames   = [8]string{"crash", "recover", "partition", "heal", "drop", "undrop", "delay", "undelay"}
)

// faultOp is one step of a schedule: after event at (0: before the
// first), strike target arg — a worker for crash and recover, a worker
// link otherwise — with kind, at strength level (1..8).
type faultOp struct {
	at, kind, arg, level int
}

// decodeSchedule reads two bytes per op. The first is the event after
// which the op strikes, modulo scheduleEvents+1. The second packs the
// kind (bits 0–2), the target (bits 3–4; a worker is that modulo 2) and
// the level less one (bits 5–7). Every input decodes; a trailing odd
// byte and ops past maxFaultOps are ignored.
func decodeSchedule(data []byte) []faultOp {
	var ops []faultOp
	for i := 0; i+1 < len(data) && len(ops) < maxFaultOps; i += 2 {
		b := int(data[i+1])
		op := faultOp{at: int(data[i]) % (scheduleEvents + 1), kind: b & 7, arg: b >> 3 & 3, level: b>>5 + 1}
		if op.kind <= faultRecover {
			op.arg %= len(faultWorkers)
		}
		ops = append(ops, op)
	}
	return ops
}

// encodeSchedule is decodeSchedule's inverse, for writing seeds.
func encodeSchedule(ops ...faultOp) []byte {
	var out []byte
	for _, op := range ops {
		out = append(out, byte(op.at), byte(op.kind|op.arg<<3|(op.level-1)<<5))
	}
	return out
}

func (op faultOp) String() string {
	target := faultLinks[op.arg][0] + "→" + faultLinks[op.arg][1]
	switch op.kind {
	case faultCrash, faultRecover:
		target = faultWorkers[op.arg]
	case faultHeal:
		target = ""
	case faultDrop:
		target += fmt.Sprintf(" p=%.1f", float64(op.level)/10)
	case faultDelay:
		target += fmt.Sprintf(" +%v", time.Duration(op.level)*300*time.Millisecond)
	}
	return strings.TrimSpace(fmt.Sprintf("after %d: %s %s", op.at, faultNames[op.kind], target))
}

// strike applies one op to the rig's network.
func (op faultOp) strike(r *relayRig) {
	net, link := r.sys.Net, faultLinks[op.arg]
	switch op.kind {
	case faultCrash:
		net.Crash(faultWorkers[op.arg]) //nolint:errcheck // known node
	case faultRecover:
		net.Recover(faultWorkers[op.arg]) //nolint:errcheck // known node
	case faultPartition:
		net.Partition(link[:1], link[1:])
	case faultHeal:
		net.Heal()
	case faultDrop:
		net.SetDrop(link[0], link[1], float64(op.level)/10)
	case faultUndrop:
		net.SetDrop(link[0], link[1], 0)
	case faultDelay:
		net.SetExtraDelay(link[0], link[1], time.Duration(op.level)*300*time.Millisecond)
	case faultUndelay:
		net.SetExtraDelay(link[0], link[1], 0)
	}
}

// faultRun is what a schedule's run is compared on: the results of both
// subscriptions in arrival order, the retransmissions, the deaths and
// the relay's host.
type faultRun struct {
	Results  []string
	Copies   []string
	Replayed uint64
	Deaths   []string
	Host     string
}

// runSchedule drives scheduleEvents events through a fresh relay rig
// while ops strike, undoes every fault, steps until both subscriptions
// have every result, and checks that each event arrived exactly once at
// each and neither is degraded. After every event it also checks that the runtime
// never changed a peer's liveness in the world: a worker is down exactly
// when the schedule crashed it and has not recovered it, and src and
// mgr are always up.
func runSchedule(t *testing.T, ops []faultOp) faultRun {
	t.Helper()
	r := newRelayRig(t, replayOptions())
	down := map[string]bool{}
	checkWorld := func(after string) {
		t.Helper()
		for _, name := range []string{"src", "mgr", "w1", "w2"} {
			if alive := r.sys.Net.Alive(name); alive == down[name] {
				t.Errorf("%s: %s is alive=%v in the world, the schedule alone implies alive=%v",
					after, name, alive, !down[name])
			}
		}
	}
	for i := 0; i <= scheduleEvents; i++ {
		if i > 0 {
			r.emit()
			r.sys.Step(time.Second)
		}
		for _, op := range ops {
			if op.at == i {
				op.strike(r)
				if op.kind <= faultRecover {
					down[faultWorkers[op.arg]] = op.kind == faultCrash
				}
			}
		}
		checkWorld(fmt.Sprintf("after event %d", i))
	}
	r.sys.Net.Heal()
	for _, w := range faultWorkers {
		r.sys.Net.Recover(w) //nolint:errcheck // known node
		down[w] = false
	}
	for _, link := range faultLinks {
		r.sys.Net.SetDrop(link[0], link[1], 0)
		r.sys.Net.SetExtraDelay(link[0], link[1], 0)
	}
	r.syncUntil(t, scheduleEvents)
	checkWorld("at the end")
	for _, task := range []*Task{r.task, r.reader} {
		if got := task.Degraded(); len(got) != 0 {
			t.Errorf("%s degraded: %v", task.ID, got)
		}
	}
	r.task.Stop()
	r.reader.Stop()
	run := faultRun{Replayed: r.sys.ReplayedItems(), Deaths: r.sup.Deaths(), Host: relayHost(r.task)}
	for _, out := range []struct {
		task *Task
		to   *[]string
	}{{r.task, &run.Results}, {r.reader, &run.Copies}} {
		items := out.task.Results().Drain()
		for _, it := range items {
			*out.to = append(*out.to, fmt.Sprintf("%s@%v", it.Tree, it.Time))
		}
		assertItemsExactlyOnce(t, out.task.ID+" results", items, scheduleEvents)
	}
	return run
}

// checkSchedule is the target's runner: it decodes data, runs the
// schedule twice, and fails unless both runs hold the invariants and
// agree. It returns the first run.
func checkSchedule(t *testing.T, data []byte) faultRun {
	t.Helper()
	ops := decodeSchedule(data)
	first := runSchedule(t, ops)
	if second := runSchedule(t, ops); !reflect.DeepEqual(first, second) {
		t.Errorf("schedule %q ran two ways:\n%+v\n%+v", ops, first, second)
	}
	return first
}

// relayMixes are the hand-written fault mixes the relay rig has always
// been held to, as inputs of the target; TestExactlyOnceAcrossFaultMixes
// adds what each is for.
var relayMixes = []struct {
	name       string
	schedule   []byte
	wantReplay bool
	migrates   bool // the relay ends on w2, after a detected death
}{
	{name: "no faults"},
	{
		name: "lossy links",
		schedule: encodeSchedule(
			faultOp{at: 1, kind: faultDrop, arg: 0, level: 5},
			faultOp{at: 1, kind: faultDrop, arg: 1, level: 5}),
		wantReplay: true,
	},
	{
		name: "slow links",
		schedule: encodeSchedule(
			faultOp{at: 1, kind: faultDelay, arg: 0, level: 5},
			faultOp{at: 1, kind: faultDelay, arg: 1, level: 3}),
	},
	{
		// src cannot reach the relay for a third of the run; the monitor
		// sees both sides, so no migration happens and the sweep must
		// repair the hole after the heal.
		name: "partition heals",
		schedule: encodeSchedule(
			faultOp{at: 7, kind: faultPartition, arg: 0, level: 1},
			faultOp{at: 14, kind: faultHeal, level: 1}),
		wantReplay: true,
	},
	{
		name: "crash and migrate",
		schedule: encodeSchedule(
			faultOp{at: 7, kind: faultCrash, arg: 0, level: 1},
			faultOp{at: 15, kind: faultRecover, arg: 0, level: 1}),
		wantReplay: true,
		migrates:   true,
	},
	{
		name: "lossy links and crash",
		schedule: encodeSchedule(
			faultOp{at: 1, kind: faultDrop, arg: 0, level: 4},
			faultOp{at: 1, kind: faultDrop, arg: 1, level: 4},
			faultOp{at: 1, kind: faultDrop, arg: 2, level: 4},
			faultOp{at: 1, kind: faultDrop, arg: 3, level: 4},
			faultOp{at: 7, kind: faultCrash, arg: 0, level: 1}),
		wantReplay: true,
		migrates:   true,
	},
}

// FuzzFaultSchedule is the exactly-once contract checked by search over
// fault schedules: whatever the schedule, once every fault is undone the
// task holds every event exactly once, is not degraded, and a second run
// of the same schedule is identical in results, retransmissions, deaths
// and relay host. The seeds are the relay mixes; testdata/fuzz holds
// the schedules a search found worth keeping.
func FuzzFaultSchedule(f *testing.F) {
	for _, mix := range relayMixes {
		f.Add(mix.schedule)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkSchedule(t, data) })
}

// corpusEntry reads a committed FuzzFaultSchedule input.
func corpusEntry(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzFaultSchedule", name))
	if err != nil {
		t.Fatal(err)
	}
	header, body, _ := strings.Cut(string(raw), "\n")
	quoted, ok := strings.CutPrefix(strings.TrimSpace(body), "[]byte(")
	data, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
	if header != "go test fuzz v1" || !ok || err != nil {
		t.Fatalf("%s is not a []byte corpus entry: %q", name, raw)
	}
	return []byte(data)
}

// TestFaultScheduleRunsTwiceAlike runs four committed schedules 200
// times each at GOMAXPROCS=2; every pair of runs must agree.
//   - x0xXx.00 (named in the encoding of the prototype that found it)
//     crashes w1 and makes src→w2 and w2→mgr lossy after event 1, then
//     crashes w1 again after event 9. The relay fails over to w2, whose
//     two links carry gossip pings from Step's goroutine and data from
//     the peers' loops at once. When a drop was a draw from one shared
//     stream, the order the two took their draws in decided the run:
//     36 of 400 pairs differed.
//   - confirmed-after-recovery makes src→w1 lossy after event 1, crashes
//     w1 after event 7 and recovers it after event 11. The death is
//     confirmed after the recovery, and FailPeer moves the relay off the
//     revived w1; when it did not quiesce the loops first, whether the
//     relay had passed on the latest event decided the run: 7 of 400
//     pairs differed. While FailPeer also crashed the peer it failed, w1
//     stayed down from event 13.
//   - live-source-declared-dead crashes w1 before event 1, partitions
//     src→w1 and delays w1→mgr by 600 ms after event 2, recovers w1 and
//     crashes w2 after event 3, and crashes w1 after event 4 and
//     recovers it after event 6. The detector confirms w2, then src,
//     which only lost w1. While FailPeer crashed the peer it failed, the
//     live source went down and the task ended with 0 of 20 events; now
//     the alerter is lost only until src rejoins the ring.
//   - shared-link-drops makes w1→mgr lossy (p=0.5) after event 1,
//     crashes w1 after event 8, makes w2→mgr lossy after event 9 and
//     recovers w1 after event 16. Both links carry the relay's stream to
//     mgr's two subscriptions at once: one drop strikes both, the sweep
//     repairs each edge on its own, and the move re-binds both.
func TestFaultScheduleRunsTwiceAlike(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, name := range []string{"x0xXx.00", "confirmed-after-recovery", "live-source-declared-dead", "shared-link-drops"} {
		t.Run(name, func(t *testing.T) {
			data := corpusEntry(t, name)
			for i := 0; i < 200 && !t.Failed(); i++ {
				checkSchedule(t, data)
			}
		})
	}
}
