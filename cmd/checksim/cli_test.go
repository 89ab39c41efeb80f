package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// cliCases are run in order and together give every checksim flag a
// non-default value at least once. "$DIR" in an argument stands for a
// scratch directory shared by all cases, so the snapshotting case leaves the
// blob the resume case reads. A case that fails records its error.
var cliCases = []struct {
	name string
	args []string
}{
	{"list", []string{"-list"}},
	{"coordinated_capability", []string{"-workload", "cg", "-ranks", "16", "-iters", "20",
		"-compute", "500us", "-jitter", "0.1", "-bytes", "2048",
		"-protocol", "coordinated", "-interval", "3ms", "-write", "200us",
		"-net", "capability", "-bisection", "50", "-seed", "7"}},
	{"uncoordinated_noise_failures", []string{"-workload", "stencil2d", "-ranks", "16", "-iters", "30",
		"-protocol", "uncoordinated", "-offset", "random", "-interval", "5ms", "-write", "200us",
		"-log-alpha", "1us", "-log-beta", "0.2", "-incr-every", "3", "-incr-fraction", "0.5",
		"-noise-period", "5ms", "-noise-duration", "50us",
		"-mtbf", "640ms", "-restart", "2ms",
		"-seed", "16", "-max-time", "30s"}},
	{"hierarchical", []string{"-workload", "stencil2d", "-ranks", "16", "-iters", "20",
		"-protocol", "hierarchical", "-cluster", "4", "-interval", "4ms", "-write", "300us",
		"-log-alpha", "500ns", "-net", "ethernet"}},
	{"nonblocking", []string{"-workload", "cg", "-ranks", "8", "-iters", "20",
		"-protocol", "nonblocking", "-interval", "4ms", "-window", "2ms", "-slowdown", "1.5"}},
	{"partner_storage", []string{"-workload", "ep", "-ranks", "8", "-iters", "30",
		"-protocol", "partner", "-offset", "aligned", "-interval", "3ms", "-write", "500us",
		"-ckpt-bytes", "65536", "-store-agg", "2", "-store-writer", "0.5",
		"-store-node", "4", "-ranks-per-node", "4", "-image-bytes", "200000"}},
	{"twolevel", []string{"-workload", "stencil2d", "-ranks", "8", "-iters", "30",
		"-protocol", "twolevel", "-interval", "10ms", "-write", "1ms",
		"-local-interval", "1ms", "-local-write", "50us", "-store-node", "2", "-image-bytes", "100000"}},
	{"replication_takeover", []string{"-workload", "cg", "-ranks", "8", "-iters", "20",
		"-protocol", "replication", "-replica-degree", "2", "-hb-period", "500us", "-takeover", "200us",
		"-mtbf", "200ms", "-restart", "1ms", "-seed", "5"}},
	{"cic_validated", []string{"-workload", "stencil2d", "-ranks", "16", "-iters", "30",
		"-protocol", "cic", "-cic-lag", "2", "-interval", "2ms", "-write", "100us", "-validate"}},
	{"cap_exceeded", []string{"-workload", "cg", "-ranks", "16", "-iters", "50", "-max-time", "1ms"}},
	{"trace_gantt_timeline", []string{"-trace", "../../internal/exp/testdata/traces/cg_p16.goal",
		"-protocol", "coordinated", "-interval", "1ms", "-write", "50us",
		"-timeline", "$DIR/timeline.csv", "-gantt", "-gantt-width", "40"}},
	{"snapshot", []string{"-workload", "cg", "-ranks", "8", "-iters", "10",
		"-protocol", "uncoordinated", "-interval", "3ms", "-write", "300us",
		"-snapshot-every", "2000", "-snapshot-dir", "$DIR/snaps"}},
	{"resume", []string{"-workload", "cg", "-ranks", "8", "-iters", "10",
		"-protocol", "uncoordinated", "-interval", "3ms", "-write", "300us",
		"-resume", "$DIR/snaps/snap-000000002000.ckpt"}},
}

// TestCLIGoldens pins checksim's complete output, error text included, for
// every case in cliCases.
func TestCLIGoldens(t *testing.T) {
	dir := t.TempDir()
	for _, c := range cliCases {
		args := make([]string, len(c.args))
		for i, a := range c.args {
			args[i] = strings.ReplaceAll(a, "$DIR", dir)
		}
		var sb strings.Builder
		if err := run(args, &sb); err != nil {
			sb.WriteString("error: " + err.Error() + "\n")
		}
		got := strings.ReplaceAll(sb.String(), dir, "$DIR")
		golden := filepath.Join("testdata", "cli_"+c.name+".golden")
		if *update {
			if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("missing golden (regenerate with -update): %v", err)
		}
		if got != string(want) {
			t.Errorf("%s drifted from golden\n--- got ---\n%s--- want ---\n%s", c.name, got, want)
		}
	}
}
