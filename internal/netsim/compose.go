package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// The scenario composition algebra. Real traffic is never one pure
// pattern — it is background chatter with a scan layered on top, a
// DDoS that follows a worm, a beacon hiding under flash-crowd volume.
// The combinators below build such mixtures out of catalog entries
// while preserving the Scenario chunk contract, so a composed
// scenario shards across any worker count exactly like a primitive
// one: every combinator derives its chunk partition purely from the
// component partitions, and Emit routes each chunk to its component
// with a deterministic transform of the emitted events (a time
// offset, a time dilation, a host relabeling). Components that
// publish ground-truth schedules keep them — Overlay merges phase
// lists, Sequence offsets them into the slots, Dilate stretches them
// — so a composed scenario still grades analyst exercises.
//
// The declarative counterpart of this file is spec.go: ParseSpec
// turns expressions like
//
//	overlay(background, sequence(scan@10s, ddos))
//
// into the same combinator trees without writing code.

// Composite is implemented by composed scenarios; the bridge and the
// CLIs use it to ask what a mixture is made of (disentangle
// questions, mixture readings).
type Composite interface {
	// Components returns the direct sub-scenarios, in composition
	// order.
	Components() []Scenario
}

// Leaves flattens a scenario into its primitive (non-composite)
// scenarios, in composition order. A primitive scenario is its own
// single leaf.
func Leaves(s Scenario) []Scenario {
	c, ok := s.(Composite)
	if !ok {
		return []Scenario{s}
	}
	var out []Scenario
	for _, sub := range c.Components() {
		out = append(out, Leaves(sub)...)
	}
	return out
}

// componentNames joins component names for composed display names.
func componentNames(components []Scenario) string {
	names := make([]string, len(components))
	for i, s := range components {
		names[i] = s.Name()
	}
	return strings.Join(names, ",")
}

// locateChunk resolves a global chunk index against per-component
// chunk counts: chunk k belongs to the component whose cumulative
// range contains k, at local index k minus the range start.
func locateChunk(counts []int, k int) (component, local int) {
	for i, c := range counts {
		if k < c {
			return i, k
		}
		k -= c
	}
	// Unreachable when k < sum(counts); planRun bounds k.
	return len(counts) - 1, k
}

// sortPhases orders a merged phase list by start time, then label,
// giving Overlay a deterministic ground-truth timeline.
func sortPhases(phases []Phase) []Phase {
	sort.SliceStable(phases, func(i, j int) bool {
		if phases[i].Start != phases[j].Start {
			return phases[i].Start < phases[j].Start
		}
		return phases[i].Label < phases[j].Label
	})
	return phases
}

// ——— overlay ———

// overlayScenario layers components over the same timeline.
type overlayScenario struct {
	components []Scenario
}

// Overlay composes scenarios that run simultaneously over the same
// [0, Duration) timeline with the same parameters: the resulting
// traffic matrix is the cell-wise sum of the components' matrices —
// a scan on top of background chatter, a beacon under flash-crowd
// volume. Chunks are the concatenation of the component partitions,
// so the overlay shards across workers exactly like its parts.
func Overlay(components ...Scenario) Scenario {
	return overlayScenario{components: components}
}

func (o overlayScenario) Components() []Scenario { return o.components }

func (o overlayScenario) Name() string {
	return "overlay(" + componentNames(o.components) + ")"
}

func (o overlayScenario) Description() string {
	return fmt.Sprintf("%d scenarios layered over one timeline", len(o.components))
}

func (o overlayScenario) Shape() string {
	shapes := make([]string, len(o.components))
	for i, s := range o.components {
		shapes[i] = s.Shape()
	}
	return "overlay of: " + strings.Join(shapes, " + ")
}

func (o overlayScenario) chunkCounts(net *Network, p Params) []int {
	counts := make([]int, len(o.components))
	for i, s := range o.components {
		counts[i] = s.Chunks(net, p)
	}
	return counts
}

func (o overlayScenario) Chunks(net *Network, p Params) int {
	total := 0
	for _, c := range o.chunkCounts(net, p) {
		total += c
	}
	return total
}

func (o overlayScenario) Emit(net *Network, rng *rand.Rand, p Params, chunk int, emit func(Event)) error {
	ci, local := locateChunk(o.chunkCounts(net, p), chunk)
	return o.components[ci].Emit(net, rng, p, local, emit)
}

// ChunkSpan delegates to the component that owns the chunk: an
// overlay keeps every component's own time locality.
func (o overlayScenario) ChunkSpan(net *Network, p Params, chunk int) (float64, float64) {
	ci, local := locateChunk(o.chunkCounts(net, p), chunk)
	return chunkSpan(o.components[ci], net, p, local)
}

// Schedule merges the components' ground-truth phases onto one
// timeline, sorted by start time. Components without a schedule
// contribute nothing.
func (o overlayScenario) Schedule(p Params) []Phase {
	var out []Phase
	for _, s := range o.components {
		if sched, ok := s.(Scheduler); ok {
			out = append(out, sched.Schedule(p)...)
		}
	}
	return sortPhases(out)
}

// ——— sequence ———

// SeqStep is one slot of a Sequence: a scenario and the seconds it
// occupies. Duration 0 means an equal share of whatever the outer
// Params.Duration leaves after the explicitly timed steps.
type SeqStep struct {
	Scenario Scenario
	Duration float64
}

// sequenceScenario concatenates components in time.
type sequenceScenario struct {
	steps []SeqStep
}

// Sequence composes scenarios that run one after another, each in an
// equal share of the total duration: a worm followed by the DDoS it
// staged, a scan before the attack it planned. Use SequenceSteps to
// give steps explicit durations (the spec grammar's scan@10s).
func Sequence(components ...Scenario) Scenario {
	steps := make([]SeqStep, len(components))
	for i, s := range components {
		steps[i] = SeqStep{Scenario: s}
	}
	return sequenceScenario{steps: steps}
}

// SequenceSteps is Sequence with explicit per-step durations; steps
// with Duration 0 split the remaining time equally. When the timed
// steps already consume the whole duration, a step's slot collapses
// to nothing and generation fails with a configuration error rather
// than silently omitting the step's traffic.
func SequenceSteps(steps ...SeqStep) Scenario {
	return sequenceScenario{steps: append([]SeqStep(nil), steps...)}
}

func (q sequenceScenario) Components() []Scenario {
	out := make([]Scenario, len(q.steps))
	for i, st := range q.steps {
		out[i] = st.Scenario
	}
	return out
}

func (q sequenceScenario) Name() string {
	names := make([]string, len(q.steps))
	for i, st := range q.steps {
		names[i] = st.Scenario.Name()
		if st.Duration > 0 {
			names[i] += "@" + formatSeconds(st.Duration)
		}
	}
	return "sequence(" + strings.Join(names, ",") + ")"
}

func (q sequenceScenario) Description() string {
	return fmt.Sprintf("%d scenarios concatenated in time", len(q.steps))
}

func (q sequenceScenario) Shape() string {
	shapes := make([]string, len(q.steps))
	for i, st := range q.steps {
		shapes[i] = st.Scenario.Shape()
	}
	return "sequence of: " + strings.Join(shapes, " then ")
}

// slots resolves each step's [start, start+dur) interval within the
// outer duration: explicitly timed steps keep their length, the rest
// split the remainder equally.
func (q sequenceScenario) slots(p Params) []Phase {
	fixed, untimed := 0.0, 0
	for _, st := range q.steps {
		if st.Duration > 0 {
			fixed += st.Duration
		} else {
			untimed++
		}
	}
	share := 0.0
	if untimed > 0 {
		if rest := p.Duration - fixed; rest > 0 {
			share = rest / float64(untimed)
		}
	}
	out := make([]Phase, len(q.steps))
	start := 0.0
	for i, st := range q.steps {
		dur := st.Duration
		if dur <= 0 {
			dur = share
		}
		out[i] = Phase{Label: st.Scenario.Name(), Start: start, End: start + dur}
		start += dur
	}
	return out
}

// stepParams is the Params a step's component runs with: the slot
// length as its whole world, everything else inherited.
func stepParams(p Params, slot Phase) Params {
	p.Duration = slot.End - slot.Start
	return p
}

func (q sequenceScenario) chunkCounts(net *Network, p Params) []int {
	slots := q.slots(p)
	counts := make([]int, len(q.steps))
	for i, st := range q.steps {
		if slots[i].End <= slots[i].Start {
			// A collapsed slot keeps one chunk so the chunk math stays
			// well defined; emitting that chunk reports the
			// configuration error (see Emit).
			counts[i] = 1
			continue
		}
		counts[i] = st.Scenario.Chunks(net, stepParams(p, slots[i]))
	}
	return counts
}

func (q sequenceScenario) Chunks(net *Network, p Params) int {
	total := 0
	for _, c := range q.chunkCounts(net, p) {
		total += c
	}
	return total
}

func (q sequenceScenario) Emit(net *Network, rng *rand.Rand, p Params, chunk int, emit func(Event)) error {
	slots := q.slots(p)
	ci, local := locateChunk(q.chunkCounts(net, p), chunk)
	slot := slots[ci]
	if slot.End <= slot.Start {
		// A collapsed slot would silently drop the step's traffic
		// while Leaves and the bridge still advertise it as a layer —
		// a lesson whose "correct" answer names an absent behaviour.
		// Fail loudly instead: the run's duration cannot hold the
		// sequence.
		fixed := 0.0
		for _, st := range q.steps {
			if st.Duration > 0 {
				fixed += st.Duration
			}
		}
		return fmt.Errorf("netsim: sequence step %q gets no time in a %gs run (timed steps consume %gs)",
			q.steps[ci].Scenario.Name(), p.Duration, fixed)
	}
	return q.steps[ci].Scenario.Emit(net, rng, stepParams(p, slot), local, func(e Event) {
		e.Time += slot.Start
		emit(e)
	})
}

// ChunkSpan maps the owning step's span into its slot: the inner
// span (computed against the slot-local params) shifted by the slot
// start. A step without its own span is bounded below by its slot
// start but not above — inner emissions could in principle trail past
// the slot, so the conservative upper bound stays open. A collapsed
// slot reports an unbounded span; generating it fails anyway.
func (q sequenceScenario) ChunkSpan(net *Network, p Params, chunk int) (float64, float64) {
	slots := q.slots(p)
	ci, local := locateChunk(q.chunkCounts(net, p), chunk)
	slot := slots[ci]
	if slot.End <= slot.Start {
		return 0, math.Inf(1)
	}
	if sp, ok := q.steps[ci].Scenario.(ChunkSpanner); ok {
		start, end := sp.ChunkSpan(net, stepParams(p, slot), local)
		return slot.Start + start, slot.Start + end
	}
	return slot.Start, math.Inf(1)
}

// Schedule offsets each step's ground-truth phases into its slot;
// steps without their own schedule contribute one phase labeled with
// the step's name spanning the slot, so the sequence always exposes a
// full timeline.
func (q sequenceScenario) Schedule(p Params) []Phase {
	p = p.withDefaults()
	slots := q.slots(p)
	var out []Phase
	for i, st := range q.steps {
		slot := slots[i]
		if slot.End <= slot.Start {
			continue
		}
		if sched, ok := st.Scenario.(Scheduler); ok {
			for _, ph := range sched.Schedule(stepParams(p, slot)) {
				out = append(out, Phase{
					Label: ph.Label,
					Start: ph.Start + slot.Start,
					End:   ph.End + slot.Start,
				})
			}
			continue
		}
		out = append(out, Phase{Label: st.Scenario.Name(), Start: slot.Start, End: slot.End})
	}
	return out
}

// ——— dilate ———

// dilateScenario stretches a component's script in time.
type dilateScenario struct {
	inner  Scenario
	factor float64
}

// Dilate stretches a scenario's script by factor: the component runs
// its script over Duration/factor seconds of internal time and every
// event timestamp is multiplied by factor, so the same traffic spans
// the full duration at 1/factor the temporal density — a scan slowed
// to evade rate alarms, a beacon with a longer period. factor must be
// positive; factors below 1 compress instead.
func Dilate(s Scenario, factor float64) Scenario {
	return dilateScenario{inner: s, factor: factor}
}

func (d dilateScenario) Components() []Scenario { return []Scenario{d.inner} }

func (d dilateScenario) Name() string {
	return "dilate(" + d.inner.Name() + "," + formatFloat(d.factor) + ")"
}

func (d dilateScenario) Description() string {
	return fmt.Sprintf("%s stretched %gx in time", d.inner.Name(), d.factor)
}

func (d dilateScenario) Shape() string { return d.inner.Shape() }

// innerParams shrinks the duration the component sees; emitted times
// stretch back by the same factor.
func (d dilateScenario) innerParams(p Params) Params {
	if d.factor > 0 {
		p.Duration /= d.factor
	}
	return p
}

func (d dilateScenario) Chunks(net *Network, p Params) int {
	if d.factor <= 0 || math.IsNaN(d.factor) || math.IsInf(d.factor, 0) {
		return 0 // planRun reports this as a configuration error
	}
	return d.inner.Chunks(net, d.innerParams(p))
}

func (d dilateScenario) Emit(net *Network, rng *rand.Rand, p Params, chunk int, emit func(Event)) error {
	return d.inner.Emit(net, rng, d.innerParams(p), chunk, func(e Event) {
		e.Time *= d.factor
		emit(e)
	})
}

// ChunkSpan stretches the component's span by the factor, exactly
// like the emitted timestamps.
func (d dilateScenario) ChunkSpan(net *Network, p Params, chunk int) (float64, float64) {
	if d.factor <= 0 {
		return 0, math.Inf(1)
	}
	start, end := chunkSpan(d.inner, net, d.innerParams(p), chunk)
	return start * d.factor, end * d.factor
}

// Schedule stretches the component's phase timeline by the factor.
func (d dilateScenario) Schedule(p Params) []Phase {
	sched, ok := d.inner.(Scheduler)
	if !ok || d.factor <= 0 {
		return nil
	}
	p = p.withDefaults()
	var out []Phase
	for _, ph := range sched.Schedule(d.innerParams(p)) {
		out = append(out, Phase{Label: ph.Label, Start: ph.Start * d.factor, End: ph.End * d.factor})
	}
	return out
}

// ——— amplify ———

// amplifyScenario multiplies a component's volume.
type amplifyScenario struct {
	inner Scenario
	n     int
}

// Amplify multiplies a scenario's volume by repeating its script n
// more times (a Scale multiplier): amplify(beacon, 50) turns one
// covert channel into a campaign. n must be ≥ 1.
func Amplify(s Scenario, n int) Scenario {
	return amplifyScenario{inner: s, n: n}
}

func (a amplifyScenario) Components() []Scenario { return []Scenario{a.inner} }

func (a amplifyScenario) Name() string {
	return "amplify(" + a.inner.Name() + "," + strconv.Itoa(a.n) + ")"
}

func (a amplifyScenario) Description() string {
	return fmt.Sprintf("%s at %dx volume", a.inner.Name(), a.n)
}

func (a amplifyScenario) Shape() string { return a.inner.Shape() }

func (a amplifyScenario) innerParams(p Params) Params {
	p.Scale *= a.n
	return p
}

func (a amplifyScenario) Chunks(net *Network, p Params) int {
	if a.n < 1 {
		return 0 // planRun reports this as a configuration error
	}
	return a.inner.Chunks(net, a.innerParams(p))
}

func (a amplifyScenario) Emit(net *Network, rng *rand.Rand, p Params, chunk int, emit func(Event)) error {
	return a.inner.Emit(net, rng, a.innerParams(p), chunk, emit)
}

// ChunkSpan passes the component's span through under the scaled
// params (amplification adds volume, not time).
func (a amplifyScenario) ChunkSpan(net *Network, p Params, chunk int) (float64, float64) {
	if a.n < 1 {
		return 0, math.Inf(1)
	}
	return chunkSpan(a.inner, net, a.innerParams(p), chunk)
}

// Schedule passes the component's timeline through unchanged
// (amplification adds volume, not time).
func (a amplifyScenario) Schedule(p Params) []Phase {
	if sched, ok := a.inner.(Scheduler); ok {
		return sched.Schedule(p)
	}
	return nil
}

// ——— relabel ———

// relabelScenario renames hosts in a component's events.
type relabelScenario struct {
	inner   Scenario
	mapping map[string]string
}

// Relabel renames hosts in a scenario's emitted events: an event's
// source and destination are looked up in mapping, names absent from
// it pass through unchanged. With a mapping that permutes the
// network's hosts, the relabeled matrix is exactly the symmetric
// permutation matrix.PermuteCSR computes from the original
// (TestRelabelMatchesPermutationKernel checks it cell for cell) — the
// shape survives, only the axis labels move, which is what makes
// relabeled variants of one scenario distinct exercises. Mapping a
// host to a name outside the network drops those packets (counted in
// Stats.Dropped), the same sensor semantics as any foreign name.
func Relabel(s Scenario, mapping map[string]string) Scenario {
	m := make(map[string]string, len(mapping))
	for k, v := range mapping {
		m[k] = v
	}
	return relabelScenario{inner: s, mapping: m}
}

func (r relabelScenario) Components() []Scenario { return []Scenario{r.inner} }

func (r relabelScenario) Name() string {
	pairs := make([]string, 0, len(r.mapping))
	for k, v := range r.mapping {
		pairs = append(pairs, k+"="+v)
	}
	sort.Strings(pairs)
	return "relabel(" + r.inner.Name() + "," + strings.Join(pairs, ",") + ")"
}

func (r relabelScenario) Description() string {
	return fmt.Sprintf("%s with %d hosts relabeled", r.inner.Name(), len(r.mapping))
}

func (r relabelScenario) Shape() string { return r.inner.Shape() + " (hosts permuted)" }

func (r relabelScenario) Chunks(net *Network, p Params) int {
	return r.inner.Chunks(net, p)
}

func (r relabelScenario) rename(name string) string {
	if to, ok := r.mapping[name]; ok {
		return to
	}
	return name
}

func (r relabelScenario) Emit(net *Network, rng *rand.Rand, p Params, chunk int, emit func(Event)) error {
	return r.inner.Emit(net, rng, p, chunk, func(e Event) {
		e.Src = r.rename(e.Src)
		e.Dst = r.rename(e.Dst)
		emit(e)
	})
}

// ChunkSpan passes the component's span through unchanged
// (relabeling moves hosts, not time).
func (r relabelScenario) ChunkSpan(net *Network, p Params, chunk int) (float64, float64) {
	return chunkSpan(r.inner, net, p, chunk)
}

// Schedule passes the component's timeline through unchanged
// (relabeling moves hosts, not time).
func (r relabelScenario) Schedule(p Params) []Phase {
	if sched, ok := r.inner.(Scheduler); ok {
		return sched.Schedule(p)
	}
	return nil
}

// PermutationOf resolves a Relabel host mapping into an axis
// permutation for matrix.PermuteCSR: perm[i] is the axis
// position host i's traffic moves to. Every mapping key and value
// must name a network host and the mapping must be injective, so the
// result is a bijection on [0, net.Len()).
func PermutationOf(net *Network, mapping map[string]string) ([]int, error) {
	if net == nil {
		return nil, fmt.Errorf("netsim: nil network")
	}
	perm := make([]int, net.Len())
	for i := range perm {
		perm[i] = i
	}
	for from, to := range mapping {
		i, ok := net.Index(from)
		if !ok {
			return nil, fmt.Errorf("netsim: relabel source %q is not a network host", from)
		}
		j, ok := net.Index(to)
		if !ok {
			return nil, fmt.Errorf("netsim: relabel target %q is not a network host", to)
		}
		perm[i] = j
	}
	seen := make([]bool, len(perm))
	for _, p := range perm {
		if seen[p] {
			return nil, fmt.Errorf("netsim: relabel mapping is not a permutation (two hosts map to %q)",
				net.Host(p).Name)
		}
		seen[p] = true
	}
	return perm, nil
}

// ——— timed ———

// timedScenario pins a component's duration regardless of the outer
// Params: the spec grammar's name@10s outside a sequence.
type timedScenario struct {
	inner Scenario
	dur   float64
}

// Timed fixes a scenario's duration to dur seconds regardless of the
// outer Params.Duration: inside an Overlay, timed(scan, 10) confines
// the scan to the first ten seconds of a longer mixture. Inside a
// Sequence, prefer SequenceSteps, which also sizes the slot.
func Timed(s Scenario, dur float64) Scenario {
	return timedScenario{inner: s, dur: dur}
}

func (t timedScenario) Components() []Scenario { return []Scenario{t.inner} }

func (t timedScenario) Name() string {
	return t.inner.Name() + "@" + formatSeconds(t.dur)
}

func (t timedScenario) Description() string {
	return fmt.Sprintf("%s confined to %gs", t.inner.Name(), t.dur)
}

func (t timedScenario) Shape() string { return t.inner.Shape() }

func (t timedScenario) innerParams(p Params) Params {
	p.Duration = t.dur
	return p
}

func (t timedScenario) Chunks(net *Network, p Params) int {
	if t.dur <= 0 || math.IsNaN(t.dur) || math.IsInf(t.dur, 0) {
		return 0 // planRun reports this as a configuration error
	}
	return t.inner.Chunks(net, t.innerParams(p))
}

func (t timedScenario) Emit(net *Network, rng *rand.Rand, p Params, chunk int, emit func(Event)) error {
	return t.inner.Emit(net, rng, t.innerParams(p), chunk, emit)
}

// ChunkSpan reports the component's span at the pinned duration.
func (t timedScenario) ChunkSpan(net *Network, p Params, chunk int) (float64, float64) {
	if t.dur <= 0 || math.IsNaN(t.dur) || math.IsInf(t.dur, 0) {
		return 0, math.Inf(1)
	}
	return chunkSpan(t.inner, net, t.innerParams(p), chunk)
}

// Schedule reports the component's timeline at the pinned duration.
func (t timedScenario) Schedule(p Params) []Phase {
	if sched, ok := t.inner.(Scheduler); ok {
		return sched.Schedule(t.innerParams(p))
	}
	return nil
}

// formatSeconds renders a duration for composed names: "10s".
func formatSeconds(d float64) string {
	return formatFloat(d) + "s"
}

// formatFloat renders a number without trailing zeros, avoiding
// exponent notation: composed names double as spec source (see
// SpecString), and the spec grammar's numbers are plain decimals.
func formatFloat(f float64) string {
	s := strconv.FormatFloat(f, 'g', -1, 64)
	if strings.ContainsAny(s, "eE") {
		return strconv.FormatFloat(f, 'f', -1, 64)
	}
	return s
}
