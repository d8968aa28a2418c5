package network

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// Text format. A network is written in the paper's notation with
// 1-based lines, optionally prefixed by an explicit line count:
//
//	n=4: [1,3][2,4][1,2][3,4]
//	[1,3][2,4][1,2][3,4]
//
// Without the prefix the line count is inferred as the largest line
// mentioned (lines beyond that cannot be distinguished from absent
// ones, so explicit n is preferred in files). Whitespace between
// comparators is ignored. The paper's Fig. 1 network is the example
// above.

// String renders the network in the paper's notation without the n=
// prefix, e.g. "[1,3][2,4][1,2][3,4]".
func (w *Network) String() string {
	var sb strings.Builder
	for _, c := range w.Comps {
		sb.WriteString(c.String())
	}
	if sb.Len() == 0 {
		return "(empty)"
	}
	return sb.String()
}

// Format renders the network with the explicit n= prefix, suitable for
// files read back by Parse.
func (w *Network) Format() string {
	if len(w.Comps) == 0 {
		return fmt.Sprintf("n=%d:", w.N)
	}
	return fmt.Sprintf("n=%d: %s", w.N, w.String())
}

// Parse reads the text format. An explicit "n=<k>:" prefix fixes the
// line count; otherwise it is inferred from the largest line used.
// One count of '[' sizes the comparator slice, and strings.IndexByte
// finds each comparator's closing bracket and comma, so a well-formed
// network costs two allocations whatever its size (malformed text may
// over-reserve, by at most one comparator per '[').
func Parse(s string) (*Network, error) {
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
	if k := strings.Count(s, "["); k > 0 {
		comps = make([]Comparator, 0, k)
	}
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
		comma := strings.IndexByte(body, ',')
		if comma < 0 || strings.IndexByte(body[comma+1:], ',') >= 0 {
			return nil, fmt.Errorf("network: comparator %q must have two lines", body)
		}
		a, err := strconv.Atoi(strings.TrimSpace(body[:comma]))
		if err != nil {
			return nil, fmt.Errorf("network: bad line %q: %v", body[:comma], err)
		}
		b, err := strconv.Atoi(strings.TrimSpace(body[comma+1:]))
		if err != nil {
			return nil, fmt.Errorf("network: bad line %q: %v", body[comma+1:], err)
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
		// The text was trimmed at both ends above, so only space
		// before the next comparator can remain.
		if s = s[close+1:]; len(s) > 0 && s[0] != '[' {
			s = strings.TrimSpace(s)
		}
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

// MustParse is Parse panicking on error, for fixtures and tests.
func MustParse(s string) *Network {
	w, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return w
}

// jsonNetwork is the wire representation: 1-based line pairs to match
// the text format and the paper.
type jsonNetwork struct {
	Lines       int      `json:"lines"`
	Comparators [][2]int `json:"comparators"`
}

// MarshalJSON encodes the network with 1-based lines.
func (w *Network) MarshalJSON() ([]byte, error) {
	j := jsonNetwork{Lines: w.N, Comparators: make([][2]int, len(w.Comps))}
	for i, c := range w.Comps {
		j.Comparators[i] = [2]int{c.A + 1, c.B + 1}
	}
	return json.Marshal(j)
}

// UnmarshalJSON decodes and validates the 1-based wire form.
func (w *Network) UnmarshalJSON(data []byte) error {
	var j jsonNetwork
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	w.N = j.Lines
	w.Comps = make([]Comparator, len(j.Comparators))
	for i, p := range j.Comparators {
		w.Comps[i] = Comparator{A: p[0] - 1, B: p[1] - 1}
	}
	return w.Validate()
}
