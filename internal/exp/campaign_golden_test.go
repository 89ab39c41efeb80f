package exp

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"checkpointsim/internal/cache"
	"checkpointsim/internal/network"
)

// campaignGoldenPoints is the shortest prefix of the seed-42 default
// schedule that draws every protocol, failure law, storage tier and noise
// level at least once.
const campaignGoldenPoints = 33

// The first campaignGoldenPoints scenarios of the seed-42 default campaign
// are pinned to a committed golden: each point's cache key followed by its
// rendered tables. The file is the byte-identity oracle for scenario
// assembly and for scenario cache keys — a change to how a scenario is
// built, run, checked or addressed shows up as a diff.
func TestCampaignGoldenSeed42(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full scenario simulations")
	}
	sched, err := DefaultCampaignSpace().Schedule(42, campaignGoldenPoints)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]map[string]bool{"protocol": {}, "failure law": {}, "storage": {}, "noise": {}}
	for _, sc := range sched {
		seen["protocol"][sc.Protocol] = true
		seen["failure law"][sc.FailureLaw] = true
		seen["storage"][sc.Storage] = true
		seen["noise"][sc.Noise] = true
	}
	for axis, want := range map[string][]string{
		"protocol":    CampaignProtocols,
		"failure law": CampaignFailureLaws,
		"storage":     CampaignStorageTiers,
		"noise":       CampaignNoiseLevels,
	} {
		for _, v := range want {
			if !seen[axis][v] {
				t.Errorf("golden prefix never draws %s %q", axis, v)
			}
		}
	}

	var sb strings.Builder
	for _, sc := range sched {
		tables, err := sc.Run(DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", sc.ID(), err)
		}
		sb.WriteString("key " + cache.Key("golden", sc.CacheFields(network.DefaultParams())) + "\n")
		sb.WriteString(render(tables))
	}
	got := sb.String()
	path := filepath.Join("testdata", "campaign_seed42.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("campaign output drifted from golden %s\n--- got ---\n%s--- want ---\n%s",
			path, got, want)
	}
}
