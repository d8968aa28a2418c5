package network

import (
	"fmt"
	"strconv"
	"strings"
)

// parseReference is the text parser Parse replaced: one strings.Split
// per comparator and a slice grown by append. It is kept as the
// oracle Parse must match, network and error text alike.
func parseReference(s string) (*Network, error) {
	s = strings.TrimSpace(s)
	n := -1
	if strings.HasPrefix(s, "n=") {
		colon := strings.Index(s, ":")
		if colon < 0 {
			return nil, fmt.Errorf("network: missing ':' after n= prefix in %q", s)
		}
		v, err := strconv.Atoi(strings.TrimSpace(s[2:colon]))
		if err != nil {
			return nil, fmt.Errorf("network: bad line count in %q: %v", s, err)
		}
		n = v
		s = strings.TrimSpace(s[colon+1:])
	}
	var comps []Comparator
	maxLine := 0
	for len(s) > 0 {
		if s[0] != '[' {
			return nil, fmt.Errorf("network: expected '[' at %q", s)
		}
		close := strings.IndexByte(s, ']')
		if close < 0 {
			return nil, fmt.Errorf("network: unterminated comparator in %q", s)
		}
		body := s[1:close]
		parts := strings.Split(body, ",")
		if len(parts) != 2 {
			return nil, fmt.Errorf("network: comparator %q must have two lines", body)
		}
		a, err := strconv.Atoi(strings.TrimSpace(parts[0]))
		if err != nil {
			return nil, fmt.Errorf("network: bad line %q: %v", parts[0], err)
		}
		b, err := strconv.Atoi(strings.TrimSpace(parts[1]))
		if err != nil {
			return nil, fmt.Errorf("network: bad line %q: %v", parts[1], err)
		}
		if a < 1 || b < 1 {
			return nil, fmt.Errorf("network: lines are 1-based, got [%d,%d]", a, b)
		}
		if a >= b {
			return nil, fmt.Errorf("network: nonstandard comparator [%d,%d] (need a < b)", a, b)
		}
		comps = append(comps, Comparator{A: a - 1, B: b - 1})
		if b > maxLine {
			maxLine = b
		}
		s = strings.TrimSpace(s[close+1:])
	}
	if n < 0 {
		n = maxLine
	}
	w := &Network{N: n, Comps: comps}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return w, nil
}
