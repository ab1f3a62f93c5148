package dynamics

import "testing"

// TestParseRule pins the shared rule names: each good name resolves to the
// rule with the expected display name, and each bad one is an error.
func TestParseRule(t *testing.T) {
	good := map[string]string{
		"3majority":      "3-majority",
		"3majority-utie": "3-majority(uniform-tie)",
		"median":         "median",
		"polling":        "polling",
		"2choices":       "2-choices",
		"hplurality:7":   "7-plurality",
	}
	for in, want := range good {
		r, err := ParseRule(in)
		if err != nil {
			t.Errorf("ParseRule(%q): %v", in, err)
			continue
		}
		if r.Name() != want {
			t.Errorf("ParseRule(%q).Name() = %q, want %q", in, r.Name(), want)
		}
	}
	for _, bad := range []string{"", "nope", "4majority", "hplurality:", "hplurality:0", "hplurality:x"} {
		if _, err := ParseRule(bad); err == nil {
			t.Errorf("ParseRule(%q) should fail", bad)
		}
	}
}
