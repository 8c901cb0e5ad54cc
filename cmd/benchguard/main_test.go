package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParseAllocsRawOutput(t *testing.T) {
	p := writeTemp(t, "raw.txt", `
goos: linux
BenchmarkGenerateCold300-8         	       3	3597756477 ns/op	406286536 B/op	   11873 allocs/op
BenchmarkCOOMerge/merge-sharded-8  	       3	  12345 ns/op	  100 B/op	   42 allocs/op
PASS
`)
	got, err := parseAllocs(p)
	if err != nil {
		t.Fatal(err)
	}
	if got["BenchmarkGenerateCold300"] != 11873 {
		t.Errorf("cold300 = %d, want 11873 (cpu suffix must strip)", got["BenchmarkGenerateCold300"])
	}
	if got["BenchmarkCOOMerge/merge-sharded"] != 42 {
		t.Errorf("merge-sharded = %d, want 42", got["BenchmarkCOOMerge/merge-sharded"])
	}
}

func TestParseAllocsTest2JSON(t *testing.T) {
	// test2json splits one raw result line across Output events, and
	// two packages' events can interleave; the parser must reassemble
	// per package.
	p := writeTemp(t, "stream.json", `
{"Action":"output","Package":"repro","Output":"BenchmarkCOOMerge/merge-sharded\n"}
{"Action":"output","Package":"repro","Output":"BenchmarkCOOMerge/merge-sharded         \t"}
{"Action":"output","Package":"repro/internal/api","Output":"BenchmarkGenerateCold300-4 \t       3\t3597756477 ns/op\t406286536 B/op\t   11873 allocs/op\n"}
{"Action":"output","Package":"repro","Output":"       3\t  12345 ns/op\t     100 B/op\t      42 allocs/op\n"}
{"Action":"run","Package":"repro"}
{"Action":"output","Package":"repro","Output":"ok  \trepro\t44.469s\n"}
`)
	got, err := parseAllocs(p)
	if err != nil {
		t.Fatal(err)
	}
	if got["BenchmarkGenerateCold300"] != 11873 {
		t.Errorf("cold300 = %d, want 11873", got["BenchmarkGenerateCold300"])
	}
	if got["BenchmarkCOOMerge/merge-sharded"] != 42 {
		t.Errorf("merge-sharded = %d, want 42 (split fragments must reassemble)", got["BenchmarkCOOMerge/merge-sharded"])
	}
}

func TestParseAllocsIgnoresLinesWithoutBenchmem(t *testing.T) {
	p := writeTemp(t, "nomem.txt", "BenchmarkNoMem-8\t10\t100 ns/op\n")
	got, err := parseAllocs(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("parsed %v from a run without -benchmem", got)
	}
}

func TestCompareFailsOnMissingBaselineBenchmark(t *testing.T) {
	base := map[string]int64{"BenchmarkKept": 100, "BenchmarkRenamed": 50, "BenchmarkGone/sub": 7}
	cur := map[string]int64{"BenchmarkKept": 100, "BenchmarkRenamedNew": 50, "BenchmarkExtra": 1}
	v := compare(base, cur, 0.10, 64)
	if got := strings.Join(v.missing, ","); got != "BenchmarkGone/sub,BenchmarkRenamed" {
		t.Errorf("missing = %q, want the two baseline names the current run lacks", got)
	}
	if got := strings.Join(v.shared, ","); got != "BenchmarkKept" {
		t.Errorf("shared = %q, want BenchmarkKept", got)
	}
	if len(v.regressed) != 0 {
		t.Errorf("regressed = %v, want none", v.regressed)
	}
}

func TestCompareFlagsRegressionPastLimit(t *testing.T) {
	base := map[string]int64{"BenchmarkA": 1000, "BenchmarkB": 1000}
	// The limit is 1000·1.10 + 64 = 1164.
	cur := map[string]int64{"BenchmarkA": 1164, "BenchmarkB": 1165}
	v := compare(base, cur, 0.10, 64)
	if got := strings.Join(v.regressed, ","); got != "BenchmarkB" {
		t.Errorf("regressed = %q, want BenchmarkB", got)
	}
	if len(v.shared) != 2 || len(v.missing) != 0 {
		t.Errorf("shared = %v, missing = %v", v.shared, v.missing)
	}
}
