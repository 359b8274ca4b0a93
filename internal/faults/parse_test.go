package faults

import (
	"reflect"
	"testing"

	"surfnet/internal/rng"
)

// FuzzParseScript checks the script parser on arbitrary text: it never
// panics, a parsed script survives FormatScript and a second parse
// unchanged, and every event of a valid script with a positive duration
// holds its target down at its activation slot. The seed corpus lives in
// testdata/fuzz/FuzzParseScript.
func FuzzParseScript(f *testing.F) {
	f.Fuzz(func(t *testing.T, arg string) {
		script, err := ParseScript(arg)
		if err != nil {
			return
		}
		text := FormatScript(script)
		again, err := ParseScript(text)
		if err != nil {
			t.Fatalf("ParseScript(%q) = %v after formatting %q", text, err, arg)
		}
		if !reflect.DeepEqual(again, script) {
			t.Fatalf("round trip of %q: %+v, want %+v", arg, again, script)
		}
		if (Profile{Script: script}).Validate() != nil {
			return
		}
		for _, ev := range script {
			if ev.Duration == 0 {
				continue
			}
			inj := NewScripted(script)
			inj.Step(Scope{Slot: ev.Slot, Src: rng.New(1)}, nil)
			if down := ev.Node && inj.NodeDown(ev.ID) || !ev.Node && inj.FiberDown(ev.ID); !down {
				t.Fatalf("script %q: %+v not down at slot %d", arg, ev, ev.Slot)
			}
		}
	})
}
