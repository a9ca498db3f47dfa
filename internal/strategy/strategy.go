// Package strategy implements the data model of Section 2.1 of the paper:
// deployment strategies (Structure x Organization x Style), their normalized
// quality/cost/latency parameters, deployment requests with threshold
// parameters, and the satisfaction predicate connecting the two.
package strategy

import (
	"errors"
	"fmt"
)

// Structure says whether the workforce is solicited sequentially or
// simultaneously.
type Structure uint8

// Organization says whether workers are organized independently or
// collaboratively.
type Organization uint8

// Style says whether the task relies on the crowd alone or on a hybrid of
// crowd and machine algorithms.
type Style uint8

const (
	Sequential Structure = iota
	Simultaneous
)

const (
	Independent Organization = iota
	Collaborative
)

const (
	CrowdOnly Style = iota
	Hybrid
)

func (s Structure) String() string {
	switch s {
	case Sequential:
		return "SEQ"
	case Simultaneous:
		return "SIM"
	}
	return fmt.Sprintf("Structure(%d)", uint8(s))
}

func (o Organization) String() string {
	switch o {
	case Independent:
		return "IND"
	case Collaborative:
		return "COL"
	}
	return fmt.Sprintf("Organization(%d)", uint8(o))
}

func (s Style) String() string {
	switch s {
	case CrowdOnly:
		return "CRO"
	case Hybrid:
		return "HYB"
	}
	return fmt.Sprintf("Style(%d)", uint8(s))
}

// Dimensions is one (Structure, Organization, Style) combination — the paper
// calls the number of unique combinations v.
type Dimensions struct {
	Structure    Structure
	Organization Organization
	Style        Style
}

// String renders the combination in the paper's SEQ-IND-CRO notation.
func (d Dimensions) String() string {
	return fmt.Sprintf("%v-%v-%v", d.Structure, d.Organization, d.Style)
}

// AllDimensions enumerates the v = 2*2*2 = 8 unique dimension combinations in
// a deterministic order.
func AllDimensions() []Dimensions {
	var all []Dimensions
	for _, st := range []Structure{Sequential, Simultaneous} {
		for _, org := range []Organization{Independent, Collaborative} {
			for _, sty := range []Style{CrowdOnly, Hybrid} {
				all = append(all, Dimensions{st, org, sty})
			}
		}
	}
	return all
}

// Params is a normalized (quality, cost, latency) triple. All three values
// live in [0,1]. Quality is higher-is-better; cost and latency are
// lower-is-better.
type Params struct {
	Quality float64 `json:"quality"`
	Cost    float64 `json:"cost"`
	Latency float64 `json:"latency"`
}

// ErrBadParam is wrapped by every parameter-validation failure, letting
// API layers classify client input errors with errors.Is instead of
// matching message text.
var ErrBadParam = errors.New("strategy: parameter outside [0,1]")

// ErrBadCardinality is wrapped by every cardinality-validation failure.
var ErrBadCardinality = errors.New("strategy: non-positive cardinality")

// Validate checks that every parameter is inside [0,1].
func (p Params) Validate() error {
	check := func(name string, v float64) error {
		if v < 0 || v > 1 || v != v { // v != v catches NaN
			return fmt.Errorf("%w: %s parameter %v", ErrBadParam, name, v)
		}
		return nil
	}
	if err := check("quality", p.Quality); err != nil {
		return err
	}
	if err := check("cost", p.Cost); err != nil {
		return err
	}
	return check("latency", p.Latency)
}

// Strategy is a deployment strategy: a dimension combination plus the
// parameters it is estimated to achieve for the deployment under
// consideration. ID is the index of the strategy in its Set.
type Strategy struct {
	ID   int        `json:"id"`
	Name string     `json:"name"`
	Dims Dimensions `json:"dims"`
	Params
}

// String renders "s3 SIM-IND-CRO q=0.80 c=0.50 l=0.14".
func (s Strategy) String() string {
	name := s.Name
	if name == "" {
		name = fmt.Sprintf("s%d", s.ID+1)
	}
	return fmt.Sprintf("%s %v q=%.2f c=%.2f l=%.2f", name, s.Dims, s.Quality, s.Cost, s.Latency)
}

// Request is a deployment request: threshold parameters the requester
// desires (Quality is a lower bound, Cost and Latency are upper bounds) and
// the number K of strategies to recommend.
type Request struct {
	ID string `json:"id"`
	Params
	K int `json:"k"`
}

// Validate checks the thresholds and cardinality constraint.
func (r Request) Validate() error {
	if err := r.Params.Validate(); err != nil {
		return err
	}
	if r.K < 1 {
		return fmt.Errorf("%w: request %q has k=%d", ErrBadCardinality, r.ID, r.K)
	}
	return nil
}

// Satisfies reports whether strategy parameters s meet the request
// thresholds d: s.quality >= d.quality, s.cost <= d.cost and
// s.latency <= d.latency (Section 2.1).
func Satisfies(s Params, d Params) bool {
	return s.Quality >= d.Quality && s.Cost <= d.Cost && s.Latency <= d.Latency
}

// Set is an ordered collection of strategies. The order defines strategy IDs.
type Set []Strategy

// ErrEmptySet is returned by operations that need at least one strategy.
var ErrEmptySet = errors.New("strategy: empty strategy set")

// Validate checks every member and that IDs match positions.
func (set Set) Validate() error {
	if len(set) == 0 {
		return ErrEmptySet
	}
	for i, s := range set {
		if s.ID != i {
			return fmt.Errorf("strategy: strategy at position %d has ID %d", i, s.ID)
		}
		if err := s.Params.Validate(); err != nil {
			return fmt.Errorf("strategy %d: %w", i, err)
		}
	}
	return nil
}

// Satisfying returns the IDs of all strategies satisfying request d, in set
// order.
func (set Set) Satisfying(d Request) []int {
	var ids []int
	for _, s := range set {
		if Satisfies(s.Params, d.Params) {
			ids = append(ids, s.ID)
		}
	}
	return ids
}

// Renumber returns a copy of the set with IDs rewritten to positions.
func (set Set) Renumber() Set {
	out := make(Set, len(set))
	copy(out, set)
	for i := range out {
		out[i].ID = i
	}
	return out
}
