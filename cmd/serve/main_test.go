package main

import (
	"flag"
	"strings"
	"testing"
)

// TestValidateFlags checks validateFlags against the registered flags: a
// valid set passes, and for each rule one bad value (set through the flag
// package, as a command line would) is rejected with that rule's message.
func TestValidateFlags(t *testing.T) {
	// set applies name/value pairs for the rest of the (sub)test.
	set := func(t *testing.T, kv ...string) {
		t.Helper()
		for i := 0; i < len(kv); i += 2 {
			name := kv[i]
			f := flag.Lookup(name)
			if f == nil {
				t.Fatalf("flag -%s is not registered", name)
			}
			t.Cleanup(func() { flag.Set(name, f.DefValue) })
			if err := flag.Set(name, kv[i+1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	valid := []string{"data", "ds.json", "train", "true"}
	t.Run("valid", func(t *testing.T) {
		set(t, valid...)
		if err := validateFlags(); err != nil {
			t.Fatalf("valid flags rejected: %v", err)
		}
		set(t, "place", "true")
		if err := validateFlags(); err != nil {
			t.Fatalf("valid flags with -place rejected: %v", err)
		}
	})
	for _, tc := range []struct {
		set  []string // flag name, value, ... applied over the valid set
		want string
	}{
		{[]string{"data", ""}, "-data is required"},
		{[]string{"train", "false"}, "either -mean (load) or -train is required"},
		{[]string{"max-queue", "-1"}, "-max-queue must be >= 0"},
		{[]string{"steps", "0"}, "-train needs -steps >= 1"},
		{[]string{"place", "true", "place-eps", "0"}, "-place needs -place-eps in (0,1)"},
		{[]string{"place", "true", "place-eps", "1"}, "-place needs -place-eps in (0,1)"},
	} {
		var args []string
		for i := 0; i < len(tc.set); i += 2 {
			args = append(args, "-"+tc.set[i]+"="+tc.set[i+1])
		}
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			set(t, valid...)
			set(t, tc.set...)
			err := validateFlags()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("validateFlags() = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
