package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// series is one sample line of a Prometheus text exposition.
type series struct {
	name   string
	labels map[string]string
	value  float64
}

// exposition is a parsed /metrics body (icegate's, icemesh's, or the
// benchmark's own registry).
type exposition []series

// parseExposition reads the sample lines of a Prometheus text
// exposition; comment and blank lines are skipped.
func parseExposition(text string) (exposition, error) {
	var out exposition
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseSeries(line)
		if err != nil {
			return nil, fmt.Errorf("exposition line %d: %w", i+1, err)
		}
		out = append(out, s)
	}
	return out, nil
}

func parseSeries(line string) (series, error) {
	sp := strings.LastIndexByte(line, ' ')
	if sp < 0 {
		return series{}, fmt.Errorf("no value in %q", line)
	}
	v, err := strconv.ParseFloat(line[sp+1:], 64)
	if err != nil {
		return series{}, fmt.Errorf("bad value in %q: %w", line, err)
	}
	s := series{name: line[:sp], value: v}
	if open := strings.IndexByte(s.name, '{'); open >= 0 {
		if !strings.HasSuffix(s.name, "}") {
			return series{}, fmt.Errorf("unterminated labels in %q", line)
		}
		labels, err := parseLabels(s.name[open+1 : len(s.name)-1])
		if err != nil {
			return series{}, fmt.Errorf("%w in %q", err, line)
		}
		s.name, s.labels = s.name[:open], labels
	}
	return s, nil
}

// parseLabels reads `k="v",k2="v2"` with the exposition's escapes.
func parseLabels(text string) (map[string]string, error) {
	labels := map[string]string{}
	for text != "" {
		eq := strings.IndexByte(text, '=')
		if eq <= 0 || eq+1 >= len(text) || text[eq+1] != '"' {
			return nil, fmt.Errorf("bad label")
		}
		key := text[:eq]
		var val strings.Builder
		i := eq + 2
		for ; i < len(text) && text[i] != '"'; i++ {
			if text[i] == '\\' && i+1 < len(text) {
				i++
				switch text[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(text[i])
				}
				continue
			}
			val.WriteByte(text[i])
		}
		if i >= len(text) {
			return nil, fmt.Errorf("unterminated label value")
		}
		labels[key] = val.String()
		text = strings.TrimPrefix(text[i+1:], ",")
	}
	return labels, nil
}

// matches reports whether s carries every label pair in kv (k1, v1, ...).
func (s series) matches(name string, kv []string) bool {
	if s.name != name {
		return false
	}
	for i := 0; i+1 < len(kv); i += 2 {
		if s.labels[kv[i]] != kv[i+1] {
			return false
		}
	}
	return true
}

// value returns the first series named name carrying the label pairs kv
// (k1, v1, k2, v2, ...), and whether one exists.
func (e exposition) value(name string, kv ...string) (float64, bool) {
	for _, s := range e {
		if s.matches(name, kv) {
			return s.value, true
		}
	}
	return 0, false
}

// buckets returns the cumulative ladder of histogram name (its
// name_bucket series) restricted to the label pairs kv, sorted by le.
func (e exposition) buckets(name string, kv ...string) []bucket {
	var out []bucket
	for _, s := range e {
		if !s.matches(name+"_bucket", kv) {
			continue
		}
		le := math.Inf(1)
		if s.labels["le"] != "+Inf" {
			v, err := strconv.ParseFloat(s.labels["le"], 64)
			if err != nil {
				continue
			}
			le = v
		}
		out = append(out, bucket{le: le, cum: s.value})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].le < out[j].le })
	return out
}

// delta subtracts an earlier scrape's ladder from a later one, bucket by
// bucket, so a percentile covers only the observations in between.
func delta(later, earlier []bucket) []bucket {
	out := append([]bucket(nil), later...)
	for i := range out {
		for _, b := range earlier {
			if b.le == out[i].le {
				out[i].cum -= b.cum
			}
		}
	}
	return out
}
