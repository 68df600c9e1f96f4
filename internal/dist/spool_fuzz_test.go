package dist

import (
	"bytes"
	"testing"

	"fairmc/internal/engine"
	"fairmc/internal/search"
	"fairmc/internal/syncmodel"
)

// twoAdders is a two-thread program small enough to search whole.
func twoAdders(t *engine.T) {
	v := syncmodel.NewIntVar(t, "v", 0)
	h := t.Go("adder", func(t *engine.T) { v.Add(t, 1) })
	v.Add(t, 1)
	h.Join(t)
}

// decodeSpool is spoolList's reading of one entry: the footer, then the
// shard_done record inside it.
func decodeSpool(data []byte) (*search.ShardDoneRec, bool) {
	payload, reason := spoolUnframe(data)
	if reason != "" {
		return nil, false
	}
	rec, err := search.DecodeShardDone(payload)
	return rec, err == nil
}

// FuzzSpoolEntry holds a spool entry to its decoder's contract. No input
// panics. An accepted entry is the frame of its own record re-encoded,
// byte for byte, so the decoder takes nothing the encoder would not
// write. No strict prefix of an accepted entry (a torn write) and no
// single-bit flip of one (silent corruption) is accepted. The seeds are
// entries spoolWrite would write: an abandoned shard, a report, and the
// reports of real DPOR units and of a sharded fair search.
func FuzzSpoolEntry(f *testing.F) {
	recs := []*search.ShardDoneRec{
		{Job: "prog", OptionsHash: 42, Shard: 3, Abandoned: "attempts exhausted"},
		{Job: "prog", OptionsHash: 42, Shard: 0, Report: &search.Report{Counters: search.Counters{Executions: 1}}},
	}
	for _, opts := range []search.Options{
		{Fair: true, ContextBound: -1, MaxSteps: 10000},
		{DPOR: true, MaxSteps: 10000},
	} {
		plan, err := search.PlanShards(twoAdders, opts, 2)
		if err != nil {
			f.Fatal(err)
		}
		hash := search.OptionsHash(&opts)
		for i, sh := range plan.Shards {
			recs = append(recs, &search.ShardDoneRec{Job: "twoAdders", OptionsHash: hash, Shard: i,
				Report: search.RunShard(twoAdders, opts, sh, nil)})
		}
	}
	for _, rec := range recs {
		payload, err := rec.Encode(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(spoolFrame(payload))
	}
	f.Add([]byte(spoolFooterMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, ok := decodeSpool(data)
		if !ok {
			return
		}
		payload, err := rec.Encode(nil)
		if err != nil {
			t.Fatalf("an accepted entry does not re-encode: %v", err)
		}
		if again := spoolFrame(payload); !bytes.Equal(again, data) {
			t.Fatalf("accepted %x, re-framed to %x", data, again)
		}
		for i := range data {
			if _, ok := decodeSpool(data[:i]); ok {
				t.Fatalf("accepted %x, and its prefix %x too", data, data[:i])
			}
		}
		flipped := bytes.Clone(data)
		for i := range flipped {
			for b := 0; b < 8; b++ {
				flipped[i] ^= 1 << b
				if _, ok := decodeSpool(flipped); ok {
					t.Fatalf("accepted %x, and with bit %d of byte %d flipped too", data, b, i)
				}
				flipped[i] ^= 1 << b
			}
		}
	})
}
