// Package bridge turns netsim catalog scenarios into playable
// teaching content: the authoring path the paper's whole premise
// rests on — simulated network activity rendered as learning modules
// a student can load into Traffic Warehouse.
//
// AggregateModule renders a scenario's aggregate traffic matrix
// into one core.Module: axis labels come from the netsim.Network,
// the color grid from the patterns zone classification, and a
// three-option quiz.Question is synthesized from the matrix itself
// (recognize the catalog shape, spot the supernode, name the attack
// phase). CampaignFromScenario goes further and emits one module per
// aggregation window, bundling the result as a course.Course whose
// units gate the window-by-window timeline behind the aggregate
// overview — a whole course unit from a single catalog entry.
//
// Composed scenarios (netsim's composition algebra: Overlay,
// Sequence, Dilate, Amplify, Relabel; netsim.ParseSpec builds them
// from a declarative spec expression) flow through the same paths,
// but their aggregate question asks the student to disentangle the
// mixture: name the set of behaviours layered into the matrix, with
// near-miss sets as distractors. Their campaigns inherit the merged
// ground-truth schedule, so timeline windows still ask which phase
// (of whichever component owns the window) is showing.
package bridge

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/netsim"
	"repro/internal/patterns"
	"repro/internal/quiz"
)

// Author credited on synthesized modules.
const Author = "bridge"

// AggregateModule generates the scenario and renders its aggregate
// traffic matrix as a playable learning module with a synthesized
// question. The generation runs on the sparse path
// (netsim.GenerateCSRArena) on the given number of workers (≤ 0
// selects all CPUs) and densifies only the final lesson-sized grid;
// it aborts when ctx is cancelled, so a served authoring request
// (the api layer's /v1/module) stops working the moment its caller
// hangs up.
func AggregateModule(ctx context.Context, s netsim.Scenario, net *netsim.Network, seed int64, workers int, p netsim.Params) (*core.Module, error) {
	zones, err := checkInputs(s, net)
	if err != nil {
		return nil, err
	}
	csr, _, err := netsim.GenerateCSRArena(ctx, nil, s, net, seed, workers, p)
	if err != nil {
		return nil, fmt.Errorf("bridge: generate %s: %w", s.Name(), err)
	}
	return aggregateModule(s, net, zones, csr), nil
}

// aggregateModule renders an already-aggregated run as the
// scenario's overview module: primitive scenarios get the shape
// question, composed ones the disentangle question. Shared by
// AggregateModule and the campaign's overview lesson.
func aggregateModule(s netsim.Scenario, net *netsim.Network, zones patterns.Zones, csr *matrix.CSR) *core.Module {
	q := shapeQuestion(s)
	if _, ok := s.(netsim.Composite); ok {
		q = disentangleQuestion(s)
	}
	return buildModule(
		titleCase(s.Name())+" — aggregate traffic",
		fmt.Sprintf("Aggregate traffic matrix of a %d-host scenario run.", net.Len()),
		net, zones, csr.ToDense(), &q,
	)
}

// checkInputs validates the scenario/network pair and resolves the
// zone layout every synthesized color grid needs.
func checkInputs(s netsim.Scenario, net *netsim.Network) (patterns.Zones, error) {
	if s == nil {
		return patterns.Zones{}, fmt.Errorf("bridge: nil scenario")
	}
	if net == nil {
		return patterns.Zones{}, fmt.Errorf("bridge: nil network")
	}
	zones, err := net.Zones()
	if err != nil {
		return patterns.Zones{}, fmt.Errorf("bridge: %w", err)
	}
	return zones, nil
}

// buildModule renders a dense traffic matrix as a module: packet
// counts clamped to the paper's display guidance, colors from the
// zone classification, and an optional synthesized question.
func buildModule(name, hint string, net *netsim.Network, zones patterns.Zones, dense *matrix.Dense, q *quiz.Question) *core.Module {
	clamped := dense.Clone()
	clamped.Apply(func(v int) int {
		if v > core.MaxDisplayPackets {
			return core.MaxDisplayPackets
		}
		return v
	})
	m := &core.Module{
		Name:                name,
		Size:                core.FormatSize(net.Len()),
		Author:              Author,
		Hint:                hint,
		AxisLabels:          net.Labels(),
		TrafficMatrix:       clamped.ToRows(),
		TrafficMatrixColors: zones.ZoneColors(dense).ToRows(),
	}
	if q != nil {
		m.HasQuestion = true
		m.Question = q.Prompt
		m.Answers = append([]string(nil), q.Answers...)
		m.CorrectAnswerElement = q.Correct
	}
	return m
}

// shapeQuestion asks the student to recognize the scenario's
// aggregate traffic-matrix shape among distractor shapes drawn from
// the rest of the catalog.
func shapeQuestion(s netsim.Scenario) quiz.Question {
	answers := []string{s.Shape()}
	for _, other := range netsim.Scenarios() {
		if len(answers) == quiz.RecommendedChoices {
			break
		}
		if other.Name() == s.Name() || contains(answers, other.Shape()) {
			continue
		}
		answers = append(answers, other.Shape())
	}
	return assemble(
		"Which shape does this scenario's aggregate traffic matrix draw?",
		answers, len(s.Name()),
	)
}

// disentangleQuestion asks the student to name the set of scenario
// behaviours layered into a composed run — the skill mixtures teach.
// The correct answer is the set of primitive components; distractors
// are near-miss sets that swap one component for a catalog shape that
// is not in the mixture, so recognizing most-but-not-all layers is
// not enough.
func disentangleQuestion(s netsim.Scenario) quiz.Question {
	leaves := netsim.Leaves(s)
	inMix := map[string]bool{}
	var members []string
	for _, leaf := range leaves {
		if !inMix[leaf.Name()] {
			inMix[leaf.Name()] = true
			members = append(members, leaf.Name())
		}
	}
	sort.Strings(members)
	var others []string
	for _, entry := range netsim.Scenarios() {
		if !inMix[entry.Name()] {
			others = append(others, entry.Name())
		}
	}
	answers := []string{strings.Join(members, " + ")}
	for k := 0; len(answers) < quiz.RecommendedChoices && k < len(others); k++ {
		wrong := append([]string(nil), members...)
		wrong[k%len(wrong)] = others[k]
		sort.Strings(wrong)
		if candidate := strings.Join(wrong, " + "); !contains(answers, candidate) {
			answers = append(answers, candidate)
		}
	}
	// A degenerate catalog (every primitive already in the mixture)
	// falls back to proper subsets as distractors.
	for k := 0; len(answers) < 2 && k < len(members) && len(members) > 1; k++ {
		subset := append([]string(nil), members[:k]...)
		subset = append(subset, members[k+1:]...)
		if candidate := strings.Join(subset, " + "); !contains(answers, candidate) {
			answers = append(answers, candidate)
		}
	}
	return assemble(
		"Which set of behaviours is layered into this composed traffic matrix?",
		answers, len(s.Name()),
	)
}

// supernodeQuestion asks which host is the matrix's busiest
// supernode. ok is false when the matrix has no qualifying hub or
// too few non-hub hosts to serve as distractors.
func supernodeQuestion(net *netsim.Network, m matrix.Matrix, rot int) (quiz.Question, bool) {
	hubs := matrix.SupernodesOf(m, patterns.SupernodeFanThreshold)
	if len(hubs) == 0 {
		return quiz.Question{}, false
	}
	isHub := make(map[int]bool, len(hubs))
	for _, h := range hubs {
		isHub[h.Index] = true
	}
	labels := net.Labels()
	answers := []string{labels[hubs[0].Index]}
	for i, label := range labels {
		if len(answers) == quiz.RecommendedChoices {
			break
		}
		if !isHub[i] {
			answers = append(answers, label)
		}
	}
	if len(answers) < 2 {
		return quiz.Question{}, false
	}
	prompt := fmt.Sprintf("Which host is the busiest supernode (≥%d distinct peers) in this traffic matrix?",
		patterns.SupernodeFanThreshold)
	return assemble(prompt, answers, hubs[0].Index+rot), true
}

// phaseQuestion asks which phase of a scripted scenario a window is
// showing, using the scenario's ground-truth schedule. ok is false
// when the scenario publishes no schedule or the labels cannot seed
// enough distractors.
func phaseQuestion(s netsim.Scenario, p netsim.Params, w netsim.SparseWindow, rot int) (quiz.Question, bool) {
	sched, ok := s.(netsim.Scheduler)
	if !ok {
		return quiz.Question{}, false
	}
	phases := sched.Schedule(p)
	if len(phases) == 0 {
		return quiz.Question{}, false
	}
	mid := w.Start + (w.End-w.Start)/2
	current := phases[len(phases)-1]
	for _, ph := range phases {
		if ph.Start <= mid && mid < ph.End {
			current = ph
			break
		}
	}
	answers := []string{current.Label}
	for _, ph := range phases {
		if len(answers) == quiz.RecommendedChoices {
			break
		}
		if ph.Label != current.Label && !contains(answers, ph.Label) {
			answers = append(answers, ph.Label)
		}
	}
	if len(answers) < 2 {
		return quiz.Question{}, false
	}
	prompt := fmt.Sprintf("Which phase of the scenario is the window [%gs,%gs) showing?", w.Start, w.End)
	return assemble(prompt, answers, rot), true
}

// assemble builds a Question from an answer list whose first element
// is correct, rotating the list by rot so the correct option's
// authored position varies deterministically across modules
// (educators may read the JSON aloud; display order is shuffled at
// presentation anyway).
func assemble(prompt string, answers []string, rot int) quiz.Question {
	correct := answers[0]
	n := len(answers)
	rot = ((rot % n) + n) % n
	out := make([]string, 0, n)
	out = append(out, answers[rot:]...)
	out = append(out, answers[:rot]...)
	idx := 0
	for i, a := range out {
		if a == correct {
			idx = i
			break
		}
	}
	return quiz.Question{Prompt: prompt, Answers: out, Correct: idx}
}

// contains reports whether list holds s.
func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// titleCase uppercases the first letter of a scenario name for
// module titles.
func titleCase(s string) string {
	if s == "" {
		return s
	}
	return strings.ToUpper(s[:1]) + s[1:]
}
