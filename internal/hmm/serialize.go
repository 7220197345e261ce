package hmm

import (
	"encoding/json"
	"fmt"
)

// The paper trains its per-claim HMMs offline (§III-C) and decodes online;
// serialization lets a deployment persist trained parameter sets λ_u and
// ship them to the decoding tier.

// discreteJSON is the stable wire form of a Discrete model.
type discreteJSON struct {
	A  [][]float64 `json:"transitions"`
	B  [][]float64 `json:"emissions"`
	Pi []float64   `json:"initial"`
}

// MarshalJSON implements json.Marshaler.
func (m *Discrete) MarshalJSON() ([]byte, error) {
	return json.Marshal(discreteJSON{A: m.A, B: m.B, Pi: m.Pi})
}

// UnmarshalJSON implements json.Unmarshaler and validates the decoded
// model.
func (m *Discrete) UnmarshalJSON(raw []byte) error {
	var w discreteJSON
	if err := json.Unmarshal(raw, &w); err != nil {
		return fmt.Errorf("hmm: decode discrete model: %w", err)
	}
	restored := Discrete{A: w.A, B: w.B, Pi: w.Pi}
	if err := restored.Validate(); err != nil {
		return fmt.Errorf("hmm: deserialized model invalid: %w", err)
	}
	*m = restored
	return nil
}

// gaussianJSON is the stable wire form of a Gaussian model.
type gaussianJSON struct {
	A        [][]float64 `json:"transitions"`
	Pi       []float64   `json:"initial"`
	Mean     []float64   `json:"means"`
	Var      []float64   `json:"variances"`
	VarFloor float64     `json:"varianceFloor,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (m *Gaussian) MarshalJSON() ([]byte, error) {
	return json.Marshal(gaussianJSON{A: m.A, Pi: m.Pi, Mean: m.Mean, Var: m.Var, VarFloor: m.VarFloor})
}

// UnmarshalJSON implements json.Unmarshaler and validates the decoded
// model.
func (m *Gaussian) UnmarshalJSON(raw []byte) error {
	var w gaussianJSON
	if err := json.Unmarshal(raw, &w); err != nil {
		return fmt.Errorf("hmm: decode gaussian model: %w", err)
	}
	restored := Gaussian{A: w.A, Pi: w.Pi, Mean: w.Mean, Var: w.Var, VarFloor: w.VarFloor}
	if err := restored.Validate(); err != nil {
		return fmt.Errorf("hmm: deserialized model invalid: %w", err)
	}
	*m = restored
	return nil
}
