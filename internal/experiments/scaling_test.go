package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestScalingArtifact runs the scaling sweep on the quick workload
// under the fail-fast auditor and pins its acceptance bar: AdaInf's
// goodput at 4 sharded GPUs must reach at least 1.8x its own 1-GPU
// goodput (the catalog saturates a single GPU, so added lanes must
// convert into SLO-met requests).
func TestScalingArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("runs nine quick serving arms")
	}
	o := Options{Quick: true, Seed: 3, Horizon: 100 * time.Second, Audit: true}
	res, err := Scaling(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != 1 || len(res.Tables[0].Rows) != 9 {
		t.Fatalf("unexpected table shape: %+v", res.Tables)
	}
	var ada *Series
	for i := range res.Series {
		if res.Series[i].Label == "AdaInf goodput vs 1 GPU" {
			ada = &res.Series[i]
		}
	}
	if ada == nil {
		t.Fatal("no AdaInf goodput series")
	}
	if got := ada.Y[len(ada.Y)-1]; got < 1.8 {
		t.Errorf("AdaInf goodput at 4 GPUs = %.2fx its 1-GPU run, want >= 1.8x", got)
	}
	for _, s := range res.Series {
		if s.Y[0] != 1 {
			t.Errorf("%s: 1-GPU baseline ratio = %v, want 1", s.Label, s.Y[0])
		}
	}
}

// TestMetamorphicSingleLaneGoldens pins the NGPUs=1 compatibility
// contract at the strongest available bar: a golden arm re-run with
// the lane count explicitly set to 1 must reproduce the committed
// golden metrics byte for byte.
func TestMetamorphicSingleLaneGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("reruns golden arms")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "serving_goldens.json"))
	if err != nil {
		t.Fatalf("missing goldens: %v", err)
	}
	var wantMap map[string]goldenMetrics
	if err := json.Unmarshal(want, &wantMap); err != nil {
		t.Fatal(err)
	}
	labels, arms := goldenArms(t)
	// The three fig18 comparison regimes: default, two apps, one GPU.
	picks := map[string]bool{
		"fig18/AdaInf apps=8 gpus=4": true,
		"fig18/AdaInf apps=2 gpus=4": true,
		"fig18/AdaInf apps=8 gpus=1": true,
	}
	checked := 0
	for i := range arms {
		if !picks[labels[i]] {
			continue
		}
		a := &arms[i]
		o := goldenOptions()
		o.NGPUs = 1
		o.Seed = armSeed(o.Seed, a.workloadKey())
		r, err := a.m.run(o, a.apps, a.gpus)
		if err != nil {
			t.Fatalf("%s: %v", labels[i], err)
		}
		g, _ := json.Marshal(goldenOf(r))
		w, _ := json.Marshal(wantMap[labels[i]])
		if string(g) != string(w) {
			t.Errorf("%s diverged from golden\n got: %s\nwant: %s", labels[i], g, w)
		}
		checked++
	}
	if checked != 3 {
		t.Fatalf("checked %d arm runs, want 3 (golden arm set changed?)", checked)
	}
}
