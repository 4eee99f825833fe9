package nameservice

import (
	"sort"
	"strings"
	"testing"
)

// FuzzPatternIndex is a differential fuzzer: the prefix-tree's Match
// must agree exactly with the reference predicate matchesPattern for
// every (pattern set, topic) pair, and Add/Remove must round-trip the
// tree back to empty. The input encodes a small pattern set and a
// topic in one string: newline-separated patterns, last line the
// topic.
func FuzzPatternIndex(f *testing.F) {
	f.Add("metrics.*\nmetrics.cpu")
	f.Add("metrics.**\nmetrics.node3.cpu")
	f.Add("a.*.c\na.b.c")
	f.Add("*\ntopic")
	f.Add("**\na.b.c.d")
	f.Add("exact.name\nexact.name")
	f.Add("a.*\na.*.c\na.**\na.b")
	f.Add("x.y\nx.z\nx.*\nx.y")
	f.Add("\n")
	f.Add("deep.*.mid.**\ndeep.a.mid.b.c")

	f.Fuzz(func(t *testing.T, input string) {
		lines := strings.Split(input, "\n")
		if len(lines) < 2 {
			return
		}
		topic := lines[len(lines)-1]
		raw := lines[:len(lines)-1]
		if len(raw) > 16 {
			raw = raw[:16]
		}
		var pats []string
		seen := make(map[string]bool)
		for _, p := range raw {
			if ValidPattern(p) != nil || seen[p] {
				continue
			}
			seen[p] = true
			pats = append(pats, p)
		}

		x := NewPatternIndex()
		for i, p := range pats {
			if !x.Add(p, uint64(i)) {
				t.Fatalf("Add(%q, %d) refused a valid new pair", p, i)
			}
			if x.Add(p, uint64(i)) {
				t.Fatalf("Add(%q, %d) accepted a duplicate", p, i)
			}
		}
		if x.Len() != len(pats) {
			t.Fatalf("Len = %d, want %d", x.Len(), len(pats))
		}

		// Differential check: tree match set == reference match set.
		var got []int
		x.Match(topic, func(key uint64) { got = append(got, int(key)) })
		sort.Ints(got)
		// The tree must agree even on non-topic inputs (production
		// never feeds them — ValidTopicName gates publishes — but
		// agreement keeps the predicate the single source of truth).
		var want []int
		for i, p := range pats {
			if matchesPattern(p, topic) {
				want = append(want, i)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("Match(%q) over %q = %v, reference %v", topic, pats, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Match(%q) over %q = %v, reference %v", topic, pats, got, want)
			}
		}

		// Patterns() reports the live set.
		if lp := x.Patterns(); len(lp) != len(pats) {
			t.Fatalf("Patterns() = %v, want %d entries", lp, len(pats))
		}

		// Remove in insertion order; the tree must prune back to empty
		// with matches shrinking accordingly.
		for i, p := range pats {
			if !x.Remove(p, uint64(i)) {
				t.Fatalf("Remove(%q, %d) missed a live pair", p, i)
			}
			if x.Remove(p, uint64(i)) {
				t.Fatalf("Remove(%q, %d) double-removed", p, i)
			}
		}
		if x.Len() != 0 {
			t.Fatalf("Len after full removal = %d", x.Len())
		}
		x.Match(topic, func(key uint64) {
			t.Fatalf("emptied tree still matches %q -> %d", topic, key)
		})
	})
}

// matchesPattern reports whether topic matches pat under the pattern
// grammar — the reference predicate the trie index must agree with.
func matchesPattern(pat, topic string) bool {
	if topic == "" {
		return false
	}
	ps := strings.Split(pat, ".")
	ts := strings.Split(topic, ".")
	for i, p := range ps {
		if p == "**" {
			// Final segment by validation: matches one or more remaining.
			return len(ts) > i
		}
		if i >= len(ts) {
			return false
		}
		if p != "*" && p != ts[i] {
			return false
		}
	}
	return len(ps) == len(ts)
}
