package bridge

import (
	"context"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/course"
	"repro/internal/game"
	"repro/internal/netsim"
	"repro/internal/quiz"
)

// gradeable asserts a module's question is structurally valid and
// that answering its correct option grades as correct after a
// shuffled presentation.
func gradeable(t *testing.T, m *core.Module) {
	t.Helper()
	q, ok := m.Quiz()
	if !ok {
		t.Fatalf("module %q has no resolvable question", m.Name)
	}
	if err := q.Validate(); err != nil {
		t.Fatalf("module %q question invalid: %v", m.Name, err)
	}
	p := quiz.Shuffle(q, rand.New(rand.NewSource(3)))
	correct, err := p.Grade(p.CorrectOption)
	if err != nil || !correct {
		t.Fatalf("module %q correct option does not grade correct: %v", m.Name, err)
	}
	authored, err := p.AuthoredIndex(p.CorrectOption)
	if err != nil || authored != q.Correct {
		t.Fatalf("module %q authored index %d (err %v), want %d", m.Name, authored, err, q.Correct)
	}
}

// TestModuleFromScenarioAllCatalog is the acceptance sweep: every
// catalog entry renders into a module that passes core validation
// and carries a gradeable question, on the paper's 10-host network
// and a scaled one.
func TestModuleFromScenarioAllCatalog(t *testing.T) {
	for _, s := range netsim.Scenarios() {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			for _, net := range []*netsim.Network{netsim.StandardNetwork(), netsim.ScaledNetwork(64)} {
				m, err := AggregateModule(context.Background(), s, net, 42, 0, netsim.Params{})
				if err != nil {
					t.Fatal(err)
				}
				if issues := m.Validate(); !issues.OK() {
					t.Fatalf("hosts=%d: module invalid:\n%s", net.Len(), issues.Errs())
				}
				if got, want := len(m.AxisLabels), net.Len(); got != want {
					t.Errorf("hosts=%d: %d axis labels, want %d", net.Len(), got, want)
				}
				if m.Size != core.FormatSize(net.Len()) {
					t.Errorf("hosts=%d: size %q", net.Len(), m.Size)
				}
				if m.TotalPackets() == 0 {
					t.Errorf("hosts=%d: module carries no traffic", net.Len())
				}
				gradeable(t, m)
			}
		})
	}
}

// TestModuleFromSpecDisentangleQuestion: a composed spec renders into
// a valid module whose question asks for the component set, with the
// true mixture as the gradeable correct answer.
func TestModuleFromSpecDisentangleQuestion(t *testing.T) {
	net := netsim.StandardNetwork()
	s, err := netsim.ParseSpec("overlay(background, sequence(scan, ddos))")
	if err != nil {
		t.Fatal(err)
	}
	m, err := AggregateModule(context.Background(), s, net, 42, 0, netsim.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if issues := m.Validate(); !issues.OK() {
		t.Fatalf("module invalid:\n%s", issues.Errs())
	}
	gradeable(t, m)
	if !strings.Contains(m.Question, "layered") {
		t.Errorf("question %q is not the disentangle question", m.Question)
	}
	correct := m.Answers[m.CorrectAnswerElement]
	if correct != "background + ddos + scan" {
		t.Errorf("correct answer = %q, want the sorted component set", correct)
	}
	for i, a := range m.Answers {
		if i != m.CorrectAnswerElement && a == correct {
			t.Errorf("distractor %d duplicates the correct answer", i)
		}
	}
	if len(m.Answers) != quiz.RecommendedChoices {
		t.Errorf("%d answers, want %d", len(m.Answers), quiz.RecommendedChoices)
	}

	if _, err := netsim.ParseSpec("overlay("); err == nil {
		t.Error("broken spec accepted")
	}
}

// TestCampaignFromComposedScenario: a composed scenario's campaign
// carries the merged schedule into its timeline questions and writes
// shell-friendly lesson references.
func TestCampaignFromComposedScenario(t *testing.T) {
	s, err := netsim.ParseSpec("sequence(scan@10s, ddos)")
	if err != nil {
		t.Fatal(err)
	}
	c, err := CampaignFromScenario(context.Background(), s, netsim.StandardNetwork(), 42, 0, netsim.Params{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Course.ResolveAll(c.Loader()); err != nil {
		t.Fatal(err)
	}
	for ref := range c.Lessons {
		if strings.ContainsAny(ref, "(),@= ") {
			t.Errorf("lesson reference %q is not shell-friendly", ref)
		}
	}
	// The first timeline window sits in the scan slot, the later ones
	// in the DDoS phases: both component vocabularies must appear.
	var prompts, answers []string
	for _, lesson := range c.Lessons {
		for _, m := range lesson.Modules {
			gradeable(t, m)
			prompts = append(prompts, m.Question)
			answers = append(answers, m.Answers...)
		}
	}
	all := strings.Join(answers, "\n")
	if !strings.Contains(all, "scan") {
		t.Errorf("no scan phase among timeline answers:\n%s", all)
	}
	if !strings.Contains(all, "command and control") {
		t.Errorf("no DDoS component phase among timeline answers:\n%s", all)
	}
	if !strings.Contains(strings.Join(prompts, "\n"), "layered") {
		t.Errorf("overview prompt is not the disentangle question:\n%s", strings.Join(prompts, "\n"))
	}
}

// TestModuleMatrixStaysDisplayable pins the clamp: no cell exceeds
// the paper's display guidance even for heavy scenarios.
func TestModuleMatrixStaysDisplayable(t *testing.T) {
	s, _ := netsim.LookupScenario("ddos")
	m, err := AggregateModule(context.Background(), s, netsim.StandardNetwork(), 42, 0, netsim.Params{Scale: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range m.TrafficMatrix {
		for _, v := range row {
			if v > core.MaxDisplayPackets {
				t.Fatalf("cell %d exceeds display guidance %d", v, core.MaxDisplayPackets)
			}
		}
	}
}

// TestCampaignAllCatalog synthesizes a campaign from every catalog
// entry and checks the full loading path: manifest JSON through
// course.Parse, every lesson through ResolveAll, every module
// question gradeable.
func TestCampaignAllCatalog(t *testing.T) {
	net := netsim.StandardNetwork()
	for _, s := range netsim.Scenarios() {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			c, err := CampaignFromScenario(context.Background(), s, net, 42, 0, netsim.Params{}, 10)
			if err != nil {
				t.Fatal(err)
			}
			manifest, err := c.Manifest()
			if err != nil {
				t.Fatal(err)
			}
			parsed, err := course.Parse(manifest)
			if err != nil {
				t.Fatalf("manifest does not parse back: %v", err)
			}
			lessons, err := parsed.ResolveAll(c.Loader())
			if err != nil {
				t.Fatalf("campaign does not resolve: %v", err)
			}
			if len(lessons["overview"]) != 1 {
				t.Fatalf("overview resolves %d lessons, want 1", len(lessons["overview"]))
			}
			timeline, ok := parsed.Unit("timeline")
			if !ok {
				t.Fatal("campaign has no timeline unit")
			}
			if len(timeline.Requires) != 1 || timeline.Requires[0] != "overview" {
				t.Errorf("timeline requires %v, want [overview]", timeline.Requires)
			}
			total := 0
			for _, unit := range lessons {
				for _, lesson := range unit {
					total += lesson.Len()
					for _, m := range lesson.Modules {
						gradeable(t, m)
					}
				}
			}
			if total < 2 {
				t.Errorf("campaign holds %d modules, want aggregate + windows", total)
			}
		})
	}
}

// TestCampaignPhaseQuestions pins the window→lesson mapping for a
// scheduled scenario: with 10s windows over the default 40s attack
// run, each window is phase-pure and its question's correct answer
// is that phase's ground-truth label, in timeline order.
func TestCampaignPhaseQuestions(t *testing.T) {
	s, ok := netsim.LookupScenario("attack")
	if !ok {
		t.Fatal("attack scenario missing")
	}
	c, err := CampaignFromScenario(context.Background(), s, netsim.StandardNetwork(), 42, 0, netsim.Params{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	timeline := c.Lessons[c.Course.Units[1].Lessons[0]]
	want := []string{"planning", "staging", "infiltration", "lateral movement"}
	if len(timeline.Modules) != len(want) {
		t.Fatalf("timeline has %d modules, want %d", len(timeline.Modules), len(want))
	}
	for i, m := range timeline.Modules {
		q, ok := m.Quiz()
		if !ok {
			t.Fatalf("window %d has no question", i)
		}
		if got := q.CorrectText(); got != want[i] {
			t.Errorf("window %d correct answer %q, want %q", i, got, want[i])
		}
	}
}

// TestCampaignWriteDirRoundTrip materializes a campaign on disk and
// loads it back the way trafficwarehouse -course does: manifest via
// course.LoadFile, lesson zips via the file-aware loader with
// references relative to the campaign directory.
func TestCampaignWriteDirRoundTrip(t *testing.T) {
	s, _ := netsim.LookupScenario("ddos")
	c, err := CampaignFromScenario(context.Background(), s, netsim.StandardNetwork(), 42, 0, netsim.Params{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := c.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	t.Chdir(dir)
	loaded, err := course.LoadFile(filepath.Join(dir, "course.json"))
	if err != nil {
		t.Fatal(err)
	}
	loader := course.FileAwareLoader(func(ref string) (*core.Lesson, error) {
		t.Fatalf("unexpected by-name lookup %q", ref)
		return nil, nil
	})
	lessons, err := loaded.ResolveAll(loader)
	if err != nil {
		t.Fatal(err)
	}
	for unit, ls := range lessons {
		for _, lesson := range ls {
			if lesson.Len() == 0 {
				t.Errorf("unit %q lesson %q is empty", unit, lesson.Name)
			}
		}
	}
}

// TestCampaignPlaysThroughGame closes the loop the paper promises:
// a synthesized campaign plays end to end in the actual game — fill
// the warehouse, answer the question, advance — for every lesson.
func TestCampaignPlaysThroughGame(t *testing.T) {
	s, _ := netsim.LookupScenario("ddos")
	c, err := CampaignFromScenario(context.Background(), s, netsim.StandardNetwork(), 42, 0, netsim.Params{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	order, err := c.Course.Order()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for _, unit := range order {
		for _, ref := range unit.Lessons {
			lesson := c.Lessons[ref]
			g, err := game.New(lesson, "student", rng)
			if err != nil {
				t.Fatalf("unit %q: %v", unit.Name, err)
			}
			script := strings.TrimSpace(strings.Repeat("f n 1 n ", lesson.Len()))
			src, err := game.NewScriptSource(script)
			if err != nil {
				t.Fatal(err)
			}
			g.Play(src, nil)
			if !g.Done() {
				t.Fatalf("unit %q lesson %q did not play to completion", unit.Name, lesson.Name)
			}
			if g.Session().Answered() != lesson.Len() {
				t.Errorf("unit %q: answered %d of %d questions", unit.Name, g.Session().Answered(), lesson.Len())
			}
		}
	}
}

// TestBridgeRejectsBadInput pins the error paths.
func TestBridgeRejectsBadInput(t *testing.T) {
	s, _ := netsim.LookupScenario("ddos")
	net := netsim.StandardNetwork()
	if _, err := AggregateModule(context.Background(), nil, net, 1, 0, netsim.Params{}); err == nil {
		t.Error("nil scenario accepted")
	}
	if _, err := AggregateModule(context.Background(), s, nil, 1, 0, netsim.Params{}); err == nil {
		t.Error("nil network accepted")
	}
	if _, err := CampaignFromScenario(context.Background(), s, net, 1, 0, netsim.Params{}, 0); err == nil {
		t.Error("zero window length accepted")
	}
	// A network whose cast cannot host the scenario surfaces the
	// generator's error.
	tiny, err := netsim.NewNetwork([]netsim.Host{{Name: "WS1", Role: netsim.RoleWorkstation}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AggregateModule(context.Background(), s, tiny, 1, 0, netsim.Params{}); err == nil {
		t.Error("undersized network accepted")
	}
}
