package search

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"fairmc/internal/engine"
	"fairmc/internal/obs"
	"fairmc/internal/por"
	"fairmc/internal/rng"
	"fairmc/internal/tidset"
)

// refSeen is the merge's dedup set as it was before the path trie:
// every path rendered into a string key of one map, every prefix of a
// consumed path marked apart. Quadratic in the path length and all of
// it retained, which is why it is gone from the merger — and obviously
// right, which is why it stays here as the oracle.
type refSeen map[string]bool

func pathKey(path []int) string {
	var b strings.Builder
	for i, v := range path {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(v))
	}
	return b.String()
}

func (s refSeen) markPath(path []int) {
	for k := 1; k <= len(path); k++ {
		s[pathKey(path[:k])] = true
	}
}

// trieKeys is the key set the trie below node n, whose own path is
// given, stands for: the path of every node but the root.
func trieKeys(t pathTrie, n int32, path []int, keys refSeen) refSeen {
	if n != 0 {
		keys[pathKey(path)] = true
	}
	for c := t[n].child; c != 0; c = t[c].sib {
		trieKeys(t, c, append(path, int(t[c].label)), keys)
	}
	return keys
}

// refChild is one spawn the oracle expects: the child's path and the
// siblings (by alternative index) asleep at its branch point.
type refChild struct {
	path     []int
	sleepers []int
}

// TestPathTrieMatchesReference drives ShardMerger.spawn and the oracle
// with the same generated sequences of (consumed full path, proposals)
// — the units consumed in plan order, as the merge does — and demands
// the same children, the same sleeping siblings and the same prune
// count after every unit, and at the end that the trie holds exactly the
// oracle's keys, one node each.
func TestPathTrieMatchesReference(t *testing.T) {
	const width, depth, maxUnits = 4, 10, 400
	units, prunes := 0, int64(0)
	for seed := uint64(1); seed <= 20; seed++ {
		r := rng.New(seed)
		metrics := obs.NewMetrics()
		opts := Options{DPOR: true, DisableConformance: true, Metrics: metrics}
		plan := &Plan{Shards: []Shard{{Unit: &por.Unit{}}}}
		m := NewShardMerger(opts, plan)
		ref := refSeen{}
		var pruned int64
		for i := 0; i < len(plan.Shards) && i < maxUnits; i++ {
			unit := plan.Shards[i].Unit
			if i > 0 && r.Intn(10) == 0 {
				m.spawn(unit, nil) // skipped: its path was marked when it was spawned
				continue
			}
			d := &DporResult{}
			for n := depth - len(unit.Path) - r.Intn(3); n > 0; n-- {
				d.ContIdx = append(d.ContIdx, r.Intn(width))
				d.Cont = append(d.Cont, engine.Alt{})
			}
			full := append(append([]int(nil), unit.Path...), d.ContIdx...)
			for n := 1 + r.Intn(8); n > 0 && len(full) > 0; n-- {
				pos := r.Intn(len(full))
				d.Proposals = append(d.Proposals, por.Proposal{Pos: pos, Idx: r.Intn(width)})
				node := DporNodeRec{Pos: pos}
				for j := 0; j < width; j++ {
					node.Alts = append(node.Alts, engine.Alt{Tid: tidset.Tid(j)})
					node.Moves = append(node.Moves, por.Move{Tid: tidset.Tid(j)})
				}
				d.Nodes = append(d.Nodes, node)
			}

			ref.markPath(full)
			var want []refChild
			for _, pr := range d.Proposals {
				sib := func(j int) string { return pathKey(append(full[:pr.Pos:pr.Pos], j)) }
				if ref[sib(pr.Idx)] {
					pruned++
					continue
				}
				ref[sib(pr.Idx)] = true
				c := refChild{path: append(full[:pr.Pos:pr.Pos], pr.Idx)}
				for j := 0; j < width; j++ {
					if j != pr.Idx && ref[sib(j)] {
						c.sleepers = append(c.sleepers, j)
					}
				}
				want = append(want, c)
			}

			before := len(plan.Shards)
			m.spawn(unit, &Report{Dpor: d})
			var got []refChild
			for _, sh := range plan.Shards[before:] {
				c := refChild{path: sh.Unit.Path}
				for _, mv := range sh.Unit.Sleep[len(sh.Unit.Path)-1] {
					c.sleepers = append(c.sleepers, int(mv.Tid))
				}
				got = append(got, c)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("seed %d unit %d (path %v, full %v, proposals %v): spawned %+v, the reference spawns %+v",
					seed, i, unit.Path, full, d.Proposals, got, want)
			}
			if p := metrics.Snapshot().DporUnitsPruned; p != pruned {
				t.Fatalf("seed %d unit %d: %d reversals pruned so far, the reference prunes %d", seed, i, p, pruned)
			}
		}
		units, prunes = units+len(plan.Shards), prunes+pruned
		if keys := trieKeys(m.seen, 0, nil, refSeen{}); !reflect.DeepEqual(keys, ref) || len(m.seen)-1 != len(ref) {
			t.Fatalf("seed %d: the trie holds %d keys in %d nodes, the reference %d",
				seed, len(keys), len(m.seen)-1, len(ref))
		}
	}
	if units < 4000 || prunes < 1000 {
		t.Fatalf("only %d units and %d prunes over all seeds: the generator is too weak to tell the sets apart", units, prunes)
	}
}
