// Package helix is the generic cluster manager of §IV.B: a controller
// observes cluster changes through the coordination service (package zk),
// computes the BESTPOSSIBLESTATE — the state closest to the IDEALSTATE given
// the currently live nodes — and issues state-machine transitions to
// participants until the CURRENTSTATE converges. Two state models are
// bundled: MasterSlave (the one Espresso partitions use) and LeaderStandby
// (the one replicated Kafka partitions use); both are three-state chains
// OFFLINE <-> <mid> <-> <top> differing only in role names.
package helix

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
)

// State is a node's role for one partition.
type State string

// MasterSlave and LeaderStandby model states. Both models share OFFLINE.
const (
	StateOffline State = "OFFLINE"
	StateSlave   State = "SLAVE"
	StateMaster  State = "MASTER"
	StateStandby State = "STANDBY"
	StateLeader  State = "LEADER"
)

// StateModelDef names a bundled state machine.
type StateModelDef string

// Bundled state models.
const (
	ModelMasterSlave   StateModelDef = "MasterSlave"
	ModelLeaderStandby StateModelDef = "LeaderStandby"
)

// top returns the model's highest state (one instance per partition).
func (m StateModelDef) top() State {
	if m == ModelLeaderStandby {
		return StateLeader
	}
	return StateMaster
}

// mid returns the model's intermediate state (the catch-up role).
func (m StateModelDef) mid() State {
	if m == ModelLeaderStandby {
		return StateStandby
	}
	return StateSlave
}

// legalNext returns the next hop from 'from' toward 'to' in the MasterSlave
// transition graph: OFFLINE <-> SLAVE <-> MASTER. Transitions never skip a
// step (an offline replica must become a slave — and catch up — before it
// can master a partition).
func legalNext(from, to State) (State, bool) {
	return legalNextModel(ModelMasterSlave, from, to)
}

// legalNextModel is legalNext generalised over the three-state chain of any
// bundled model: OFFLINE <-> mid <-> top, never skipping a step (an offline
// replica must pass through the catch-up role before it can lead).
func legalNextModel(m StateModelDef, from, to State) (State, bool) {
	if from == to {
		return to, false
	}
	switch rank(from) {
	case 0:
		return m.mid(), true
	case 1:
		if rank(to) == 2 {
			return m.top(), true
		}
		return StateOffline, true
	case 2:
		return m.mid(), true
	}
	return to, false
}

// Resource is a partitioned, replicated entity managed by Helix (an Espresso
// database, a relay group, a Kafka topic, ...).
type Resource struct {
	Name          string `json:"name"`
	NumPartitions int    `json:"numPartitions"`
	Replicas      int    `json:"replicas"` // total replicas incl. master/leader
	// StateModel selects the transition graph; empty means MasterSlave.
	StateModel StateModelDef `json:"stateModel,omitempty"`
}

// Model returns the resource's state model, defaulting to MasterSlave.
func (r *Resource) Model() StateModelDef {
	if r.StateModel == "" {
		return ModelMasterSlave
	}
	return r.StateModel
}

// Validate checks the resource definition.
func (r *Resource) Validate() error {
	if r.Name == "" {
		return fmt.Errorf("helix: resource name empty")
	}
	if r.NumPartitions <= 0 {
		return fmt.Errorf("helix: resource %q: numPartitions %d", r.Name, r.NumPartitions)
	}
	if r.Replicas <= 0 {
		return fmt.Errorf("helix: resource %q: replicas %d", r.Name, r.Replicas)
	}
	return nil
}

// Assignment maps partition -> instance -> state. It is the shape of the
// IDEALSTATE, the CURRENTSTATE and the BESTPOSSIBLESTATE alike.
type Assignment map[int]map[string]State

// Clone deep-copies the assignment.
func (a Assignment) Clone() Assignment {
	out := make(Assignment, len(a))
	for p, m := range a {
		cp := make(map[string]State, len(m))
		for k, v := range m {
			cp[k] = v
		}
		out[p] = cp
	}
	return out
}

// MasterOf returns the instance holding partition p's top state (MASTER or
// LEADER, depending on the resource's model), if any.
func (a Assignment) MasterOf(p int) (string, bool) {
	for inst, st := range a[p] {
		if rank(st) == 2 {
			return inst, true
		}
	}
	return "", false
}

// Equal reports deep equality.
func (a Assignment) Equal(b Assignment) bool {
	if len(a) != len(b) {
		return false
	}
	for p, m := range a {
		bm, ok := b[p]
		if !ok || len(m) != len(bm) {
			return false
		}
		for inst, st := range m {
			if bm[inst] != st {
				return false
			}
		}
	}
	return true
}

// MarshalJSON encodes with string partition keys for readability in zk.
func (a Assignment) MarshalJSON() ([]byte, error) {
	out := make(map[string]map[string]State, len(a))
	for p, m := range a {
		out[strconv.Itoa(p)] = m
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes the string-keyed form.
func (a *Assignment) UnmarshalJSON(data []byte) error {
	var raw map[string]map[string]State
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	out := make(Assignment, len(raw))
	for k, m := range raw {
		p, err := strconv.Atoi(k)
		if err != nil {
			return fmt.Errorf("helix: bad partition key %q", k)
		}
		out[p] = m
	}
	*a = out
	return nil
}

// IdealState computes the full-strength assignment for a resource over the
// given instance set: preference lists are round-robin so masters spread
// evenly, exactly the layout of Figure IV.3.
func IdealState(r *Resource, instances []string) Assignment {
	sorted := append([]string(nil), instances...)
	sort.Strings(sorted)
	out := make(Assignment, r.NumPartitions)
	n := len(sorted)
	if n == 0 {
		return out
	}
	replicas := r.Replicas
	if replicas > n {
		replicas = n
	}
	model := r.Model()
	for p := 0; p < r.NumPartitions; p++ {
		m := make(map[string]State, replicas)
		for i := 0; i < replicas; i++ {
			inst := sorted[(p+i)%n]
			if i == 0 {
				m[inst] = model.top()
			} else {
				m[inst] = model.mid()
			}
		}
		out[p] = m
	}
	return out
}

// BestPossible restricts ideal to live instances: for each partition the
// first live instance in preference order masters it, the remaining live
// replicas slave. When a preferred replica is dead, the next live instance
// (in global sorted order) is drafted to keep the replica count.
func BestPossible(r *Resource, ideal Assignment, live []string) Assignment {
	return BestPossibleWithPreference(r, ideal, live, nil)
}

// PreferenceFilter reorders (or prunes) the live candidate list for one
// partition before states are assigned; chosen[0] gets the top state. It lets
// an application constrain leader election — e.g. Kafka promotes only ISR
// members so a high-watermark-acked message can never be lost to a stale
// replica winning the election.
type PreferenceFilter func(partition int, chosen []string) []string

// BestPossibleWithPreference is BestPossible with an application hook: after
// the live preference list for a partition is assembled, prefFn may reorder
// it. A nil prefFn (or a nil/empty return) keeps the default order.
func BestPossibleWithPreference(r *Resource, ideal Assignment, live []string, prefFn PreferenceFilter) Assignment {
	liveSet := make(map[string]bool, len(live))
	for _, inst := range live {
		liveSet[inst] = true
	}
	sortedLive := append([]string(nil), live...)
	sort.Strings(sortedLive)
	model := r.Model()
	out := make(Assignment, len(ideal))
	for p, m := range ideal {
		// preference order: master/leader first, then the rest sorted by name.
		var pref []string
		for inst, st := range m {
			if rank(st) == 2 {
				pref = append(pref, inst)
				break
			}
		}
		var mids []string
		for inst, st := range m {
			if rank(st) == 1 {
				mids = append(mids, inst)
			}
		}
		sort.Strings(mids)
		pref = append(pref, mids...)

		chosen := make([]string, 0, len(pref))
		for _, inst := range pref {
			if liveSet[inst] {
				chosen = append(chosen, inst)
			}
		}
		// Draft replacements to restore the replica count.
		want := len(pref)
		if want > len(sortedLive) {
			want = len(sortedLive)
		}
		for _, inst := range sortedLive {
			if len(chosen) >= want {
				break
			}
			already := false
			for _, c := range chosen {
				if c == inst {
					already = true
					break
				}
			}
			if !already {
				chosen = append(chosen, inst)
			}
		}
		if prefFn != nil {
			if reordered := prefFn(p, append([]string(nil), chosen...)); len(reordered) > 0 {
				chosen = reordered
			}
		}
		pm := make(map[string]State, len(chosen))
		for i, inst := range chosen {
			if i == 0 {
				pm[inst] = model.top()
			} else {
				pm[inst] = model.mid()
			}
		}
		out[p] = pm
	}
	return out
}

// Transition is one state-machine step issued by the controller to a
// participant.
type Transition struct {
	ID        string `json:"id"`
	Instance  string `json:"instance"`
	Resource  string `json:"resource"`
	Partition int    `json:"partition"`
	From      State  `json:"from"`
	To        State  `json:"to"`
}

// diff computes the next-hop transitions taking current toward target in the
// MasterSlave model. Instances present in current but absent from target are
// driven to OFFLINE.
func diff(resource string, current, target Assignment) []Transition {
	return diffModel(ModelMasterSlave, resource, current, target)
}

// diffModel is diff generalised over a state model.
func diffModel(model StateModelDef, resource string, current, target Assignment) []Transition {
	var out []Transition
	partitions := map[int]bool{}
	for p := range current {
		partitions[p] = true
	}
	for p := range target {
		partitions[p] = true
	}
	// Deterministic order for tests and reproducibility.
	var plist []int
	for p := range partitions {
		plist = append(plist, p)
	}
	sort.Ints(plist)
	for _, p := range plist {
		instances := map[string]bool{}
		for inst := range current[p] {
			instances[inst] = true
		}
		for inst := range target[p] {
			instances[inst] = true
		}
		var ilist []string
		for inst := range instances {
			ilist = append(ilist, inst)
		}
		sort.Strings(ilist)

		// Demotions and offlining first so a partition never has two masters.
		for _, phase := range []bool{true, false} {
			for _, inst := range ilist {
				cur, ok := current[p][inst]
				if !ok {
					cur = StateOffline
				}
				want, ok := target[p][inst]
				if !ok {
					want = StateOffline
				}
				next, changed := legalNextModel(model, cur, want)
				if !changed {
					continue
				}
				demotion := rank(next) < rank(cur)
				if phase != demotion {
					continue
				}
				out = append(out, Transition{
					ID:        fmt.Sprintf("%s-%d-%s-%s>%s", resource, p, inst, cur, next),
					Instance:  inst,
					Resource:  resource,
					Partition: p,
					From:      cur,
					To:        next,
				})
			}
		}
	}
	return out
}

func rank(s State) int {
	switch s {
	case StateMaster, StateLeader:
		return 2
	case StateSlave, StateStandby:
		return 1
	default:
		return 0
	}
}
