// Package store provides the JSON persistence layer of the reproduction: a
// platform's strategy catalog with fitted availability models, the
// multi-tenant catalog file `stratrec serve` hosts, and deployment history
// (the observations Section 3.1's model fitting consumes). The marketplace
// simulator writes history files that round-trip through the fitting
// pipeline.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"

	"stratrec/internal/linmodel"
	"stratrec/internal/linreg"
	"stratrec/internal/strategy"
	"stratrec/internal/workforce"
)

// Catalog is a platform's strategy set with per-strategy models.
type Catalog struct {
	// Workforce is the platform's current expected availability W.
	Workforce float64 `json:"workforce"`
	Entries   []Entry `json:"strategies"`
}

// Entry is one catalog strategy.
type Entry struct {
	Name      string                `json:"name"`
	Structure string                `json:"structure"`    // "SEQ" or "SIM"
	Organize  string                `json:"organization"` // "IND" or "COL"
	Style     string                `json:"style"`        // "CRO" or "HYB"
	Params    strategy.Params       `json:"params"`
	Models    *linmodel.ParamModels `json:"models,omitempty"`
}

// dimension parsing tables.
var (
	structures = map[string]strategy.Structure{
		"SEQ": strategy.Sequential, "SIM": strategy.Simultaneous,
	}
	organizations = map[string]strategy.Organization{
		"IND": strategy.Independent, "COL": strategy.Collaborative,
	}
	styles = map[string]strategy.Style{
		"CRO": strategy.CrowdOnly, "HYB": strategy.Hybrid,
	}
)

// ErrNoModels is returned by Materialize when a strategy carries no models
// and no default factory is supplied.
var ErrNoModels = errors.New("store: strategy without models")

// Materialize converts the catalog into the library's runtime types. For
// entries without explicit models, defaults(entry) supplies them (nil
// defaults makes such entries an error).
func (c Catalog) Materialize(defaults func(Entry) linmodel.ParamModels) (strategy.Set, workforce.PerStrategyModels, error) {
	if len(c.Entries) == 0 {
		return nil, nil, strategy.ErrEmptySet
	}
	set := make(strategy.Set, 0, len(c.Entries))
	models := make(workforce.PerStrategyModels, 0, len(c.Entries))
	for i, e := range c.Entries {
		st, ok := structures[e.Structure]
		if !ok {
			return nil, nil, fmt.Errorf("store: strategy %d: unknown structure %q", i, e.Structure)
		}
		org, ok := organizations[e.Organize]
		if !ok {
			return nil, nil, fmt.Errorf("store: strategy %d: unknown organization %q", i, e.Organize)
		}
		sty, ok := styles[e.Style]
		if !ok {
			return nil, nil, fmt.Errorf("store: strategy %d: unknown style %q", i, e.Style)
		}
		if err := e.Params.Validate(); err != nil {
			return nil, nil, fmt.Errorf("store: strategy %d: %w", i, err)
		}
		set = append(set, strategy.Strategy{
			ID: i, Name: e.Name,
			Dims:   strategy.Dimensions{Structure: st, Organization: org, Style: sty},
			Params: e.Params,
		})
		switch {
		case e.Models != nil:
			models = append(models, *e.Models)
		case defaults != nil:
			models = append(models, defaults(e))
		default:
			return nil, nil, fmt.Errorf("%w: %s", ErrNoModels, e.Name)
		}
	}
	return set, models, nil
}

// AnchoredModels is the Section 3.1 default for catalog entries without
// fitted models: linear responses anchored at the entry's advertised
// parameters for the ambient workforce W. Quality improves with
// availability (slope 0.4·q); cost and latency fall with fixed slopes
// (-0.1, -0.3); the intercepts are chosen so each model passes through
// the advertised value at W. Both cmd/stratrec and the server's runtime
// tenant-admin endpoint materialize catalogs with this rule, so a
// catalog created over the API plans identically to one loaded at boot.
func AnchoredModels(p strategy.Params, W float64) linmodel.ParamModels {
	qAlpha := p.Quality * 0.4
	return linmodel.ParamModels{
		Quality: linmodel.Model{Alpha: qAlpha, Beta: p.Quality - qAlpha*W},
		Cost:    linmodel.Model{Alpha: -0.1, Beta: p.Cost + 0.1*W},
		Latency: linmodel.Model{Alpha: -0.3, Beta: p.Latency + 0.3*W},
	}
}

// Tenants is a multi-tenant catalog file: one named strategy catalog per
// tenant, the unit a `stratrec serve` instance hosts. Tenant names become
// URL path segments, so keep them URL-safe.
type Tenants struct {
	Tenants map[string]Catalog `json:"tenants"`
}

// Validate checks the file holds at least one tenant and no tenant name is
// empty or contains a path separator.
func (t Tenants) Validate() error {
	if len(t.Tenants) == 0 {
		return errors.New("store: tenants file holds no tenants")
	}
	for name := range t.Tenants {
		if name == "" {
			return errors.New("store: empty tenant name")
		}
		for _, r := range name {
			if r == '/' || r == '?' || r == '#' || r == '%' || r == ' ' {
				return fmt.Errorf("store: tenant name %q is not URL-safe", name)
			}
		}
	}
	return nil
}

// Names returns the tenant names sorted, for deterministic iteration.
func (t Tenants) Names() []string {
	names := make([]string, 0, len(t.Tenants))
	for name := range t.Tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// LoadTenants reads and validates a multi-tenant catalog file.
func LoadTenants(path string) (Tenants, error) {
	var t Tenants
	if err := load(path, &t); err != nil {
		return Tenants{}, err
	}
	return t, t.Validate()
}

// Observation is one recorded deployment outcome, the raw material of the
// Section 3.1 / Table 6 model fitting.
type Observation struct {
	Strategy     string  `json:"strategy"` // catalog entry name
	Window       string  `json:"window,omitempty"`
	Availability float64 `json:"availability"`
	Quality      float64 `json:"quality"`
	Cost         float64 `json:"cost"`
	Latency      float64 `json:"latency"`
}

// History is a deployment log.
type History struct {
	Observations []Observation `json:"observations"`
}

// ErrTooFewObservations is returned when a strategy has fewer than the
// minimum observations needed for a fit.
var ErrTooFewObservations = errors.New("store: too few observations to fit")

// FitModels groups the history by strategy name and fits per-parameter
// linear models by OLS. Strategies with fewer than minObs observations are
// skipped. The returned map is keyed by strategy name.
func (h History) FitModels(minObs int) (map[string]linmodel.ParamModels, error) {
	if minObs < 2 {
		minObs = 2
	}
	type series struct{ w, q, c, l []float64 }
	groups := map[string]*series{}
	for _, o := range h.Observations {
		g := groups[o.Strategy]
		if g == nil {
			g = &series{}
			groups[o.Strategy] = g
		}
		g.w = append(g.w, o.Availability)
		g.q = append(g.q, o.Quality)
		g.c = append(g.c, o.Cost)
		g.l = append(g.l, o.Latency)
	}
	out := map[string]linmodel.ParamModels{}
	names := make([]string, 0, len(groups))
	for name := range groups {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g := groups[name]
		if len(g.w) < minObs {
			continue
		}
		qf, err := linreg.OLS(g.w, g.q)
		if err != nil {
			return nil, fmt.Errorf("store: fitting %s quality: %w", name, err)
		}
		cf, err := linreg.OLS(g.w, g.c)
		if err != nil {
			return nil, fmt.Errorf("store: fitting %s cost: %w", name, err)
		}
		lf, err := linreg.OLS(g.w, g.l)
		if err != nil {
			return nil, fmt.Errorf("store: fitting %s latency: %w", name, err)
		}
		out[name] = linmodel.ParamModels{
			Quality: linmodel.Model{Alpha: qf.Alpha, Beta: qf.Beta},
			Cost:    linmodel.Model{Alpha: cf.Alpha, Beta: cf.Beta},
			Latency: linmodel.Model{Alpha: lf.Alpha, Beta: lf.Beta},
		}
	}
	if len(out) == 0 {
		return nil, ErrTooFewObservations
	}
	return out, nil
}

// --- generic JSON plumbing ---

// Save writes v as indented JSON to path.
func Save(path string, v interface{}) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return Write(f, v)
}

// Write encodes v as indented JSON to w.
func Write(w io.Writer, v interface{}) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// LoadCatalog reads a catalog file.
func LoadCatalog(path string) (Catalog, error) {
	var c Catalog
	return c, load(path, &c)
}

func load(path string, v interface{}) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("store: parsing %s: %w", path, err)
	}
	return nil
}
