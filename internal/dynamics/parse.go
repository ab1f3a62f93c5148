package dynamics

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseRule resolves the rule names shared by the CLI flags
// (cmd/plurality -rule, cmd/sweep -rules) and the service API
// (internal/service JobSpec.Rule) to their dynamics:
//
//	3majority | 3majority-utie | median | polling | 2choices | hplurality:H
//
// The stateful protocols (undecided, 2choices-keepown) carry their own
// engines; internal/service's JobSpec dispatches them before name parsing.
func ParseRule(s string) (Rule, error) {
	switch {
	case s == "3majority":
		return ThreeMajority{}, nil
	case s == "3majority-utie":
		return ThreeMajority{UniformTie: true}, nil
	case s == "median":
		return Median{}, nil
	case s == "polling":
		return Polling{}, nil
	case s == "2choices":
		return TwoChoices{}, nil
	case strings.HasPrefix(s, "hplurality:"):
		h, err := strconv.Atoi(strings.TrimPrefix(s, "hplurality:"))
		if err != nil || h < 1 {
			return nil, fmt.Errorf("bad h in rule %q", s)
		}
		return NewHPlurality(h), nil
	}
	return nil, fmt.Errorf("unknown rule %q", s)
}
