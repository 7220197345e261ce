package hmm

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

func TestDiscreteJSONRoundTrip(t *testing.T) {
	orig := twoStateModel()
	raw, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var restored Discrete
	if err := json.Unmarshal(raw, &restored); err != nil {
		t.Fatal(err)
	}
	// Identical likelihoods on a probe sequence prove parameter
	// equality.
	rng := rand.New(rand.NewSource(1))
	obs, _ := sample(orig, 60, rng)
	l1, err := logLikelihood(orig, obs)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := logLikelihood(&restored, obs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l1-l2) > 1e-12 {
		t.Errorf("likelihood drifted through serialization: %v vs %v", l1, l2)
	}
}

func TestDiscreteUnmarshalRejectsInvalid(t *testing.T) {
	cases := []string{
		`{`,
		`{"transitions":[[0.5,0.5]],"emissions":[[1,0]],"initial":[0.9]}`,                  // pi not a distribution
		`{"transitions":[[2,-1],[0.5,0.5]],"emissions":[[1,0],[0,1]],"initial":[0.5,0.5]}`, // negative prob
	}
	for i, raw := range cases {
		var m Discrete
		if err := json.Unmarshal([]byte(raw), &m); err == nil {
			t.Errorf("case %d accepted invalid payload", i)
		}
	}
}

func TestGaussianJSONRoundTrip(t *testing.T) {
	orig := gaussRef()
	orig.VarFloor = 1e-3
	raw, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var restored Gaussian
	if err := json.Unmarshal(raw, &restored); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	obs, _ := sampleGauss(orig, 50, rng)
	path1, s1, err := orig.ViterbiWS(NewWorkspace(), obs, nil)
	if err != nil {
		t.Fatal(err)
	}
	path2, s2, err := restored.ViterbiWS(NewWorkspace(), obs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s1-s2) > 1e-9 {
		t.Errorf("viterbi score drifted: %v vs %v", s1, s2)
	}
	for i := range path1 {
		if path1[i] != path2[i] {
			t.Fatalf("path differs at %d", i)
		}
	}
	if restored.VarFloor != 1e-3 {
		t.Errorf("VarFloor lost: %v", restored.VarFloor)
	}
}

func TestGaussianUnmarshalRejectsInvalid(t *testing.T) {
	cases := []string{
		`{`,
		`{"transitions":[[0.5,0.5],[1,0]],"initial":[0.5,0.5],"means":[0,1],"variances":[0,1]}`,      // zero variance
		`{"transitions":[[0.5,0.5],[1,0]],"initial":[0.5,0.5],"means":[0,1],"variances":[1]}`,        // dim mismatch
		`{"transitions":[[0.5,0.5],[1,0]],"initial":[0.7,0.7],"means":[0,1],"variances":[1,1]}`,      // bad pi
		`{"transitions":[[0.5,0.5],[1,0]],"initial":[0.5,0.5],"means":[0,1],"variances":[1e-320,1]}`, // no finite density
		`{"transitions":[[1]],"initial":[1],"means":[0],"variances":[1]}`,                            // 1 state
	}
	for i, raw := range cases {
		var m Gaussian
		if err := json.Unmarshal([]byte(raw), &m); err == nil {
			t.Errorf("case %d accepted invalid payload", i)
		}
	}
}

func TestTrainedModelSurvivesRoundTrip(t *testing.T) {
	// Offline-train, serialize, restore, decode: the paper's deployment
	// path.
	truth := twoStateModel()
	rng := rand.New(rand.NewSource(9))
	obs, _ := sample(truth, 150, rng)
	m := uniformModel([]float64{0.7, 0.3}, []float64{0.3, 0.7})
	if _, err := train(m, [][]int{obs}, DefaultTrainConfig()); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var restored Discrete
	if err := json.Unmarshal(raw, &restored); err != nil {
		t.Fatal(err)
	}
	p1, _, err := viterbi(m, obs)
	if err != nil {
		t.Fatal(err)
	}
	p2, _, err := viterbi(&restored, obs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("decoded path differs at %d after round trip", i)
		}
	}
}
