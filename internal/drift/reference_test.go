package drift

import (
	"reflect"
	"testing"

	"adainf/internal/app"
	"adainf/internal/dist"
	"adainf/internal/synthdata"
)

// unfitted returns a hand-built copy of ds that carries no fitted
// reference, so drift fits it from scratch.
func unfitted(ds *synthdata.Dataset) *synthdata.Dataset {
	return &synthdata.Dataset{Task: ds.Task, Samples: append([]synthdata.Sample(nil), ds.Samples...)}
}

// detectFresh runs DetectNode against an unfitted copy of ni's OldData.
func detectFresh(t *testing.T, ni *app.NodeInstance) Report {
	t.Helper()
	saved := ni.OldData
	ni.OldData = unfitted(saved)
	defer func() { ni.OldData = saved }()
	rep, err := DetectNode(ni, Config{}, dist.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestReferenceFittedOncePerOldData checks the fitted-reference memo:
// DetectNode, RankByDivergence and SelectRetrainSamples against an
// unchanged OldData share one fit and match a from-scratch fit, and a
// reassigned OldData — or another component count — is fitted afresh.
func TestReferenceFittedOncePerOldData(t *testing.T) {
	ni := surveillanceInstance(t, 11, 2).ByName["vehicle-type"]
	rep, err := DetectNode(ni, Config{}, dist.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	ref := ni.OldData.Derived()
	if ref == nil {
		t.Fatal("DetectNode kept no fitted reference on OldData")
	}
	if again, err := DetectNode(ni, Config{}, dist.NewRNG(1)); err != nil || !reflect.DeepEqual(again, rep) {
		t.Fatalf("second detection differs: %+v vs %+v (%v)", again, rep, err)
	}
	if want := detectFresh(t, ni); !reflect.DeepEqual(rep, want) {
		t.Fatalf("memoized detection diverged from a from-scratch fit:\n got %+v\nwant %+v", rep, want)
	}
	ranked, err := RankByDivergence(ni.OldData, ni.Pool, 4)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := RankByDivergence(unfitted(ni.OldData), ni.Pool, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ranked, fresh) {
		t.Fatal("memoized ranking diverged from a from-scratch fit")
	}
	picked, err := SelectRetrainSamples(ni, 50, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(picked, fresh[:50]) {
		t.Fatal("SelectRetrainSamples diverged from the from-scratch ranking")
	}
	if ni.OldData.Derived() != ref {
		t.Fatal("an unchanged OldData was refitted")
	}

	// Reassigning OldData refits against the new reference.
	ni.OldData = synthdata.Collect(ni.Stream, 500)
	if _, err := DetectNode(ni, Config{}, dist.NewRNG(1)); err != nil {
		t.Fatal(err)
	}
	if r := ni.OldData.Derived(); r == nil || r == ref {
		t.Fatal("reassigned OldData was not fitted afresh")
	}
	reRanked, err := RankByDivergence(ni.OldData, ni.Pool, 4)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(reRanked, ranked) {
		t.Fatal("the new reference ranks the pool as the old one did; the case tests nothing")
	}
	if want, _ := RankByDivergence(unfitted(ni.OldData), ni.Pool, 4); !reflect.DeepEqual(reRanked, want) {
		t.Fatal("ranking after reassignment diverged from a from-scratch fit")
	}
	// Another component count is another fit.
	three, err := RankByDivergence(ni.OldData, ni.Pool, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := RankByDivergence(unfitted(ni.OldData), ni.Pool, 3); !reflect.DeepEqual(three, want) {
		t.Fatal("a 3-component ranking reused the 4-component fit")
	}
}
