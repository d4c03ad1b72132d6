package main

import (
	"fmt"
	"strconv"
	"strings"
)

// parseProm reads Prometheus text exposition into series -> value,
// keyed by the series as written (name plus any label set). Comments
// and blank lines are skipped; a repeated series keeps its last value.
func parseProm(text string) (map[string]float64, error) {
	out := make(map[string]float64)
	for n, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// Label values may hold spaces, so the value is whatever follows
		// the label set (or the name, without one).
		rest := line
		if i := strings.LastIndexByte(line, '}'); i >= 0 {
			rest = line[i+1:]
		} else if i := strings.IndexByte(line, ' '); i >= 0 {
			rest = line[i:]
		} else {
			return nil, fmt.Errorf("prometheus line %d has no value: %q", n+1, line)
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 || len(fields) > 2 {
			return nil, fmt.Errorf("prometheus line %d: want value [timestamp], got %q", n+1, line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("prometheus line %d: %w", n+1, err)
		}
		out[strings.TrimSpace(line[:len(line)-len(rest)])] = v
	}
	return out, nil
}

// promDelta is the change between two scrapes of the same target.
type promDelta struct{ before, after map[string]float64 }

// get returns the change in one series (a series absent from a scrape
// reads 0 there).
func (d promDelta) get(series string) float64 { return d.after[series] - d.before[series] }

// mean returns the mean observation a histogram or summary gained
// between the scrapes, from its _sum and _count series.
func (d promDelta) mean(name string) float64 {
	return ratio(d.get(name+"_sum"), d.get(name+"_count"))
}
