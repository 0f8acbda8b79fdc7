package main

import (
	"flag"
	"strings"
	"testing"
)

// TestValidateFlags checks validateFlags against the registered flags:
// the defaults pass, and for each rule one bad value (set through the
// flag package, as a command line would) is rejected with that rule's
// message.
func TestValidateFlags(t *testing.T) {
	if err := validateFlags(); err != nil {
		t.Fatalf("flag defaults rejected: %v", err)
	}
	for _, tc := range []struct {
		set  []string // flag name, value, ...
		want string
	}{
		{[]string{"jobs", "0"}, "-jobs must be >= 1"},
		{[]string{"eps", "1"}, "-eps must be in (0,1)"},
		{[]string{"steps", "0"}, "-steps must be >= 1"},
		{[]string{"arrival-rate", "0"}, "-arrival-rate must be > 0"},
		{[]string{"trials", "0"}, "-trials must be >= 1"},
		{[]string{"colocation", "0"}, "-colocation must be >= 1"},
		{[]string{"max-inflight", "-1"}, "-max-inflight must be >= 0"},
		{[]string{"retry-limit", "-1"}, "-retry-limit must be >= 0"},
		{[]string{"retry-backoff", "-1"}, "-retry-backoff must be >= 0"},
		{[]string{"retry-backoff-max", "-1"}, "-retry-backoff-max must be >= 0"},
		{[]string{"retry-backoff", "2", "retry-backoff-max", "1"}, "-retry-backoff-max (1) must be >= -retry-backoff (2)"},
		{[]string{"chaos", "true", "mttf", "0"}, "-chaos needs -mttf > 0"},
		{[]string{"chaos", "true", "mttr", "0"}, "-chaos needs -mttr > 0"},
		{[]string{"chaos-degrade", "1.5"}, "-chaos-degrade must be in [0,1]"},
		{[]string{"require-trip", "true"}, "-require-trip needs -chaos"},
		{[]string{"breaker-threshold", "1"}, "-breaker-threshold must be in [0,1)"},
		{[]string{"breaker-window", "0"}, "-breaker-window must be >= 1"},
		{[]string{"breaker-probation", "-1"}, "-breaker-probation must be >= 0"},
		{[]string{"breaker-cooldown", "-1"}, "-breaker-cooldown must be >= 0"},
		{[]string{"feedback", "true", "feedback-every", "0"}, "-feedback needs -feedback-every >= 1"},
		{[]string{"feedback-interval", "-1"}, "-feedback-interval must be >= 0"},
		{[]string{"cluster-devices", "25"}, "-cluster-devices must be in [1,24]"},
	} {
		var args []string
		for i := 0; i < len(tc.set); i += 2 {
			args = append(args, "-"+tc.set[i]+"="+tc.set[i+1])
		}
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			for i := 0; i < len(tc.set); i += 2 {
				name := tc.set[i]
				f := flag.Lookup(name)
				if f == nil {
					t.Fatalf("flag -%s is not registered", name)
				}
				t.Cleanup(func() { flag.Set(name, f.DefValue) })
				if err := flag.Set(name, tc.set[i+1]); err != nil {
					t.Fatal(err)
				}
			}
			err := validateFlags()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("validateFlags() = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
