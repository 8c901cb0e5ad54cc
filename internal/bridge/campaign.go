package bridge

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/course"
	"repro/internal/matrix"
	"repro/internal/netsim"
	"repro/internal/patterns"
)

// Campaign is a whole course synthesized from one catalog entry: an
// overview lesson holding the aggregate-traffic module, a timeline
// lesson holding one module per aggregation window, and the course
// manifest that gates the timeline behind the overview. Lessons are
// keyed by the manifest's lesson references, so the campaign can be
// resolved in memory (Loader) or written to disk (WriteDir) and
// played with trafficwarehouse -course.
type Campaign struct {
	// Scenario is the catalog name the campaign was synthesized from.
	Scenario string
	// Course is the manifest: an overview unit and, when any window
	// held traffic, a timeline unit requiring it.
	Course *course.Course
	// Lessons maps each manifest lesson reference to its content.
	Lessons map[string]*core.Lesson
}

// CampaignFromScenario generates the scenario once and renders it
// into a campaign. The run streams through netsim.StreamCSRArena on
// the given number of workers (≤ 0 selects all CPUs): its aggregate
// CSR becomes the overview module (densified only at lesson size),
// and each non-empty windowLen-second window up to the configured
// duration becomes a timeline module with a question synthesized
// from its own matrix — the scenario's ground-truth phase when it
// publishes a schedule, the window's supernode when one stands out,
// the catalog shape otherwise. No trace is built, and cancelling ctx
// stops the run at chunk granularity.
func CampaignFromScenario(ctx context.Context, s netsim.Scenario, net *netsim.Network, seed int64, workers int, p netsim.Params, windowLen float64) (*Campaign, error) {
	zones, err := checkInputs(s, net)
	if err != nil {
		return nil, err
	}
	if windowLen <= 0 {
		return nil, fmt.Errorf("bridge: window length must be positive, got %g", windowLen)
	}
	// Windows arrive in index order, so a window's position in the
	// slice is its index in the run.
	var windows []netsim.SparseWindow
	csr, _, err := netsim.StreamCSRArena(ctx, nil, s, net, seed, workers, p, windowLen, p.Normalized().Duration,
		func(_ int, w netsim.SparseWindow) error {
			windows = append(windows, w)
			return nil
		})
	if err != nil {
		return nil, fmt.Errorf("bridge: generate %s: %w", s.Name(), err)
	}
	return assembleCampaign(s, net, zones, p, windowLen, csr, windows)
}

// assembleCampaign renders a run's aggregate CSR as the overview
// lesson and its windows (all of them, in index order) as the
// timeline lesson, one module per non-empty window, and bundles both
// under a validated course manifest.
func assembleCampaign(s netsim.Scenario, net *netsim.Network, zones patterns.Zones, p netsim.Params, windowLen float64, csr *matrix.CSR, windows []netsim.SparseWindow) (*Campaign, error) {
	title := titleCase(s.Name())

	// Overview: the whole-run aggregate with the shape question.
	overview := &core.Lesson{
		Name:    s.Name() + " overview",
		Modules: []*core.Module{aggregateModule(s, net, zones, csr)},
	}

	// Timeline: one module per non-empty window.
	timeline := &core.Lesson{Name: s.Name() + " timeline"}
	for k, w := range windows {
		if w.Matrix.NNZ() == 0 {
			continue
		}
		q, ok := phaseQuestion(s, p, w, k)
		if !ok {
			q, ok = supernodeQuestion(net, w.Matrix, k)
		}
		if !ok {
			q = shapeQuestion(s)
		}
		timeline.Modules = append(timeline.Modules, buildModule(
			fmt.Sprintf("%s — window %d [%gs,%gs)", title, k+1, w.Start, w.End),
			fmt.Sprintf("Window %d of the %s scenario timeline.", k+1, s.Name()),
			net, zones, w.Matrix.ToDense(), &q,
		))
	}

	overviewRef := refSlug(s.Name()) + "_overview.zip"
	timelineRef := refSlug(s.Name()) + "_timeline.zip"
	c := &Campaign{
		Scenario: s.Name(),
		Lessons:  map[string]*core.Lesson{overviewRef: overview},
		Course: &course.Course{
			Name:   "Scenario study: " + s.Name(),
			Author: Author,
			Units: []course.Unit{{
				Name:        "overview",
				Description: s.Description(),
				Lessons:     []string{overviewRef},
			}},
		},
	}
	if len(timeline.Modules) > 0 {
		c.Lessons[timelineRef] = timeline
		c.Course.Units = append(c.Course.Units, course.Unit{
			Name:        "timeline",
			Description: fmt.Sprintf("The same run window by window (%gs aggregation windows).", windowLen),
			Lessons:     []string{timelineRef},
			Requires:    []string{"overview"},
		})
	}
	if err := c.Course.Validate(); err != nil {
		return nil, fmt.Errorf("bridge: synthesized course invalid: %w", err)
	}
	return c, nil
}

// refSlug turns a scenario name into a filesystem-friendly lesson
// reference: composed names carry parentheses, commas, '@', and '='
// from the spec grammar, which collapse to underscores so the
// campaign's zip files stay shell-friendly.
func refSlug(name string) string {
	var b strings.Builder
	lastUnderscore := false
	for _, r := range name {
		ok := r == '-' || r == '_' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')
		switch {
		case ok:
			b.WriteRune(r)
			lastUnderscore = false
		case !lastUnderscore:
			b.WriteByte('_')
			lastUnderscore = true
		}
	}
	return strings.Trim(b.String(), "_")
}

// Loader resolves the campaign's lesson references in memory,
// satisfying course.Course.ResolveAll without touching disk.
func (c *Campaign) Loader() course.Loader {
	return func(ref string) (*core.Lesson, error) {
		if l, ok := c.Lessons[ref]; ok {
			return l, nil
		}
		return nil, fmt.Errorf("bridge: campaign has no lesson %q", ref)
	}
}

// Manifest encodes the course manifest as JSON; the result parses
// back through course.Parse.
func (c *Campaign) Manifest() ([]byte, error) {
	data, err := json.MarshalIndent(c.Course, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("bridge: encode manifest: %w", err)
	}
	return append(data, '\n'), nil
}

// WriteDir materializes the campaign on disk: course.json plus one
// lesson zip per reference, laid out so
//
//	cd dir && trafficwarehouse -course course.json
//
// plays the synthesized course (the manifest's zip references are
// relative to the directory).
func (c *Campaign) WriteDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("bridge: write campaign: %w", err)
	}
	manifest, err := c.Manifest()
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "course.json"), manifest, 0o644); err != nil {
		return fmt.Errorf("bridge: write campaign: %w", err)
	}
	refs := make([]string, 0, len(c.Lessons))
	for ref := range c.Lessons {
		refs = append(refs, ref)
	}
	sort.Strings(refs)
	for _, ref := range refs {
		f, err := os.Create(filepath.Join(dir, ref))
		if err != nil {
			return fmt.Errorf("bridge: write campaign: %w", err)
		}
		if err := c.Lessons[ref].WriteZip(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("bridge: write campaign: %w", err)
		}
	}
	return nil
}
