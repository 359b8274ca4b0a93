package ledger

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestCommittedLedgersRoundTrip pins the schema to the committed ledgers:
// both load and write back byte for byte, so every field either ledger
// carries is declared here with the tag and omitempty it was written with.
func TestCommittedLedgersRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"BENCH_decoder.json", "BENCH_service.json"} {
		src := filepath.Join("..", "..", name)
		want, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Load(src)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Benchmarks) == 0 {
			t.Fatalf("%s loaded no benchmarks", name)
		}
		out := filepath.Join(dir, name)
		if err := Write(out, rep); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s does not re-encode byte-identically:\n%s", name, got)
		}
	}
}

func TestLoadErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := Load(filepath.Join(dir, "absent.json")); err == nil {
		t.Fatal("missing file loaded")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"benchmarks": [`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); err == nil {
		t.Fatal("truncated ledger loaded")
	}
	if err := Write(filepath.Join(dir, "no", "such", "dir.json"), &Report{}); err == nil {
		t.Fatal("Write into a missing directory succeeded")
	}
}

// FuzzLoad feeds arbitrary bytes to Load: it never panics, and any report it
// accepts survives Write and a second Load unchanged. The seed corpus lives
// in testdata/fuzz/FuzzLoad.
func FuzzLoad(f *testing.F) {
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		in := filepath.Join(dir, "in.json")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := Load(in)
		if err != nil {
			return
		}
		out := filepath.Join(dir, "out.json")
		if err := Write(out, rep); err != nil {
			t.Fatalf("Write of loaded %q: %v", data, err)
		}
		again, err := Load(out)
		if err != nil {
			t.Fatalf("reload of written %q: %v", data, err)
		}
		if !reflect.DeepEqual(again, rep) {
			t.Fatalf("round trip of %q: %+v, want %+v", data, again, rep)
		}
	})
}
