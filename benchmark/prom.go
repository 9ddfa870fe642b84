package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/provider"
)

// promSample is one line of Prometheus text exposition.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parseProm reads the text exposition format: comment lines are skipped,
// every other line is `name{label="value",...} number` with the label
// block optional. Exemplars (" # {...}") after the value are ignored.
func parseProm(r io.Reader) ([]promSample, error) {
	var out []promSample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		s, err := parsePromLine(line)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

func parsePromLine(line string) (promSample, error) {
	s := promSample{labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(line, "{ "); i < 0 {
		return s, fmt.Errorf("prom: no value in %q", line)
	} else if line[i] == '{' {
		s.name = line[:i]
		rest = line[i+1:]
		for {
			rest = strings.TrimLeft(rest, ", ")
			if strings.HasPrefix(rest, "}") {
				rest = rest[1:]
				break
			}
			eq := strings.Index(rest, `="`)
			if eq < 0 {
				return s, fmt.Errorf("prom: bad label block in %q", line)
			}
			key := rest[:eq]
			val, n, err := unquoteLabel(rest[eq+1:])
			if err != nil {
				return s, fmt.Errorf("prom: %v in %q", err, line)
			}
			s.labels[key] = val
			rest = rest[eq+1+n:]
		}
	} else {
		s.name = line[:i]
		rest = line[i:]
	}
	f := strings.Fields(rest)
	if len(f) == 0 {
		return s, fmt.Errorf("prom: no value in %q", line)
	}
	v, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return s, fmt.Errorf("prom: value %q in %q", f[0], line)
	}
	s.value = v
	return s, nil
}

// unquoteLabel decodes a "quoted" label value at the start of s (escapes
// \\, \" and \n) and returns it with the number of bytes consumed.
func unquoteLabel(s string) (string, int, error) {
	if s == "" || s[0] != '"' {
		return "", 0, fmt.Errorf("label value not quoted")
	}
	var b strings.Builder
	for i := 1; i < len(s); i++ {
		switch c := s[i]; c {
		case '"':
			return b.String(), i + 1, nil
		case '\\':
			i++
			if i >= len(s) {
				return "", 0, fmt.Errorf("dangling escape")
			}
			if s[i] == 'n' {
				b.WriteByte('\n')
			} else {
				b.WriteByte(s[i])
			}
		default:
			b.WriteByte(c)
		}
	}
	return "", 0, fmt.Errorf("unterminated label value")
}

// promSnapshot is one scrape of every daemon, heartbeat RPCs left out, each
// sample tagged with the role of the daemon it came from (label "daemon_role") so that families
// without a role label, like the WAL counters, can be attributed.
type promSnapshot []promSample

// sum adds up the samples of one family whose labels contain match.
func (p promSnapshot) sum(name string, match map[string]string) float64 {
	var t float64
	for _, s := range p {
		if s.name != name {
			continue
		}
		ok := true
		for k, v := range match {
			if s.labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			t += s.value
		}
	}
	return t
}

// scrape reads /metrics of every daemon of the deployment.
func (dep *deployment) scrape() (promSnapshot, error) {
	hc := &http.Client{Timeout: 5 * time.Second}
	var snap promSnapshot
	for _, d := range dep.daemons {
		if !dep.metrics {
			return nil, fmt.Errorf("%s runs without -metrics-listen", d.name)
		}
		resp, err := hc.Get("http://" + d.obsAddr + "/metrics")
		if err != nil {
			return nil, err
		}
		samples, err := parseProm(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.name, err)
		}
		for _, s := range samples {
			// Provider heartbeats tick with the wall clock, not with the op
			// list: counted, no RPC count would repeat.
			if s.labels["method"] == provider.MethodHeartbeat {
				continue
			}
			s.labels["daemon_role"] = d.role
			snap = append(snap, s)
		}
	}
	return snap, nil
}
