package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Snapshot is a point-in-time export of a collector: merged counter
// totals, per-shard (per-tenant-group) counters, histogram buckets,
// and the retained event trace. Snapshots are plain data — safe to
// serialize and diff.
type Snapshot struct {
	// Tenants is how many scopes the collector issued.
	Tenants uint32 `json:"tenants"`
	// Counters maps counter name to merged total; zero counters are
	// omitted.
	Counters map[string]uint64 `json:"counters"`
	// PerShard breaks counters down by shard. With one tenant per
	// shard (a fleet of at most Shards workers) this is per-tenant
	// aggregation; shards with no activity are omitted.
	PerShard []ShardCounters `json:"per_shard,omitempty"`
	// Histograms holds the non-empty histograms.
	Histograms []HistogramSnapshot `json:"histograms,omitempty"`
	// EventsTotal counts every event ever pushed, including those the
	// ring has since overwritten.
	EventsTotal uint64 `json:"events_total"`
	// Events is the retained trace, oldest first.
	Events []Event `json:"events,omitempty"`
}

// ShardCounters is one shard's counter totals.
type ShardCounters struct {
	Shard    int               `json:"shard"`
	Counters map[string]uint64 `json:"counters"`
}

// HistogramSnapshot is one histogram's non-empty buckets.
type HistogramSnapshot struct {
	Name    string   `json:"name"`
	Count   uint64   `json:"count"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Bucket is one histogram bucket: Count values in [Lo, Hi].
type Bucket struct {
	Lo    uint64 `json:"lo"`
	Hi    uint64 `json:"hi"`
	Count uint64 `json:"count"`
}

// Snapshot exports the collector's current state. It is safe to call
// concurrently with writers: counters are read atomically (the set is
// not one atomic cut across counters), and events caught mid-write are
// skipped.
func (c *Collector) Snapshot() *Snapshot {
	s := &Snapshot{
		Tenants:     c.scopes.Load(),
		Counters:    map[string]uint64{},
		EventsTotal: c.ring.total(),
		Events:      c.ring.snapshot(),
	}
	for si := range c.shards {
		sh := &c.shards[si]
		var per map[string]uint64
		for ci := CounterID(0); ci < NumCounters; ci++ {
			v := sh.counters[ci].Load()
			if v == 0 {
				continue
			}
			s.Counters[ci.String()] += v
			if per == nil {
				per = map[string]uint64{}
			}
			per[ci.String()] += v
		}
		if per != nil {
			s.PerShard = append(s.PerShard, ShardCounters{Shard: si, Counters: per})
		}
	}
	for hi := HistogramID(0); hi < NumHistograms; hi++ {
		hs := HistogramSnapshot{Name: hi.String()}
		var buckets [NumBuckets]uint64
		for si := range c.shards {
			for b := 0; b < NumBuckets; b++ {
				buckets[b] += c.shards[si].hist[hi][b].Load()
			}
		}
		for b := 0; b < NumBuckets; b++ {
			if buckets[b] == 0 {
				continue
			}
			lo, hi := BucketBounds(b)
			hs.Buckets = append(hs.Buckets, Bucket{Lo: lo, Hi: hi, Count: buckets[b]})
			hs.Count += buckets[b]
		}
		if hs.Count > 0 {
			s.Histograms = append(s.Histograms, hs)
		}
	}
	return s
}

// Counter returns one merged counter total by ID.
func (s *Snapshot) Counter(id CounterID) uint64 { return s.Counters[id.String()] }

// EventsOfKind filters the retained trace by kind.
func (s *Snapshot) EventsOfKind(kind EventKind) []Event {
	var out []Event
	for _, e := range s.Events {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// WriteJSON writes the snapshot as indented JSON. Map keys are
// serialized in sorted order, so the output is deterministic for a
// deterministic execution.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Render formats the snapshot as a human-readable table.
func (s *Snapshot) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "telemetry: %d tenant(s), %d event(s) recorded (%d retained)\n",
		s.Tenants, s.EventsTotal, len(s.Events))
	fmt.Fprintf(&b, "counters:\n")
	if len(s.Counters) == 0 {
		fmt.Fprintf(&b, "  (none)\n")
	}
	// Fixed ID order keeps the table stable and groups related
	// counters, unlike map-key order.
	for id := CounterID(0); id < NumCounters; id++ {
		if v, ok := s.Counters[id.String()]; ok {
			fmt.Fprintf(&b, "  %-22s %12d\n", id.String(), v)
		}
	}
	for _, h := range s.Histograms {
		fmt.Fprintf(&b, "histogram %s (n=%d):\n", h.Name, h.Count)
		for _, bk := range h.Buckets {
			hi := fmt.Sprint(bk.Hi)
			if bk.Hi == ^uint64(0) {
				hi = "inf"
			}
			fmt.Fprintf(&b, "  [%d..%s] %d\n", bk.Lo, hi, bk.Count)
		}
	}
	if len(s.Events) > 0 {
		const tail = 16
		events := s.Events
		if len(events) > tail {
			fmt.Fprintf(&b, "events (last %d of %d retained):\n", tail, len(events))
			events = events[len(events)-tail:]
		} else {
			fmt.Fprintf(&b, "events:\n")
		}
		for _, e := range events {
			fmt.Fprintf(&b, "  %s\n", e)
		}
	}
	return b.String()
}
