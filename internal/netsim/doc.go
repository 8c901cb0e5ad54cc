// Package netsim simulates the network behaviours the learning
// modules teach, at packet-event granularity, through a concurrent,
// extensible scenario engine. Where the paper's figures are
// hand-drawn snapshots, netsim generates the same shapes live:
// scripted scenarios emit timestamped events that aggregate into
// traffic matrices, which the pattern classifiers then recognize.
// The analyst examples and the Fig 9 cross-check build on this
// substrate.
//
// # Scenario interface and catalog
//
// A traffic script is a value implementing Scenario: it names
// itself, describes the traffic-matrix shape it draws, partitions
// its workload into independent chunks, and emits each chunk's
// events from a private RNG. The built-ins form a fixed catalog
// (LookupScenario / Scenarios), built once at init, that twsim lists
// and runs by name. Scenarios whose script follows a fixed timeline also
// implement Scheduler, exposing labeled phases as ground truth for
// analyst exercises.
//
// The built-in catalog holds eight scenarios. The first four mirror
// the paper's modules, the rest extend the space of teachable
// behaviours; each draws a distinct matrix shape:
//
//   - background: benign workstation↔server/external chatter — a
//     loose blue/grey mesh.
//   - scan: one adversary probes every blue host — an external
//     supernode of unreciprocated fan-out (Fig 6d live).
//   - attack: the four-stage notional attack — traffic migrating
//     red→red, red→grey, grey→blue, blue→blue across four
//     zone-pure quarters (Fig 7 live).
//   - ddos: the four-component DDoS — C2 clique, botnet tasking
//     rows, a heavy fan-in flood column on the victim, and
//     backscatter (Fig 9 live).
//   - worm: a self-propagating worm doubling through blue space —
//     one red→blue seed plus an unreciprocated blue→blue cascade
//     tree.
//   - exfil: bulk data theft — a single dominant blue→grey cell
//     whose volume dwarfs its reverse.
//   - flashcrowd: a legitimate demand spike — an internal supernode
//     of heavy reciprocated fan-in on the blue server, the benign
//     twin of the DDoS flood.
//   - beacon: covert C2 beaconing — a single light periodic
//     blue→red link.
//
// A patterns.Summary of a run's matrix answers every lesson question
// from one walk: its Behavior reading recognizes the four extended
// shapes; Topology, AttackStage and DDoS cover the originals; Mixture
// scores all eight at once for composed traffic.
//
// # Composition algebra
//
// Real traffic is never one pure pattern, so the catalog is closed
// under composition: Overlay layers scenarios over one timeline,
// Sequence concatenates them in time (with optional per-step
// durations), Dilate stretches a script's tempo, Amplify multiplies
// its volume, and Relabel permutes its hosts (its matrix-level twin
// is matrix.PermuteCSR). Every combinator implements the same
// Scenario chunk contract, deriving its partition from its
// components', so composed scenarios shard across workers exactly
// like primitives; Scheduler phase lists are merged, offset, or
// stretched so ground truth survives. ParseSpec builds combinator
// trees from expressions like
//
//	overlay(background, sequence(scan@10s, ddos))
//
// and is the one resolver every front-end uses, bare catalog names
// included. The catalog itself never grows: a mixture is reused by
// nesting its expression.
//
// # Concurrency model
//
// Generation is deterministic-parallel. A scenario's Chunks method
// fixes a worker-count-independent partition of its workload; the
// engine fans the chunk indices across a worker pool, seeding chunk
// k's RNG from (seed, k) by splitmix64. Workers accumulate into
// private stores — per-chunk trace slots, or the sparse fold's
// chunk-local per-window buffers (handed to a matrix.WindowCompactor
// once per chunk) and per-worker remainder COOs — and every store
// compacts by a counting sort that sums duplicates as integers,
// which is order-insensitive. So for a given
// (scenario, network, seed, params) the aggregate output is
// bit-identical on 1 worker or N.
//
// # Entry points
//
// Each operation has one function. It takes a context first (a
// cancelled context stops the run at chunk granularity) and an
// optional *Arena second (nil allocates fresh, with bit-identical
// output); Trace.SparseMatrixArena, a single linear fold, takes only
// the arena:
//
//   - GenerateTraceArena materializes the sorted event trace; the
//     dense views (Windows, Matrix, Assoc, Between) and the sparse
//     ones (Trace.WindowsCSRArena, Trace.SparseMatrixArena) read it.
//   - GenerateCSRArena folds the run straight into the aggregate CSR
//     without building a trace: it is StreamCSRArena's fold run with
//     no windows.
//   - StreamCSRArena is its windowed, bounded-memory form: it
//     folds events into an incremental per-window compactor, with no
//     lock per event, and hands each window's CSR to a callback the
//     moment it seals — long before the run completes — then returns
//     the aggregate CSR, summed from the sealed windows plus any
//     events past the horizon.
//
// Sealing is driven by the optional ChunkSpanner interface
// (conservative per-chunk time bounds; every catalog entry and
// combinator implements it), and because a window's CSR is a pure
// function of its event multiset, streamed windows are bit-identical
// to Trace.WindowsCSRArena's for any worker count — pinned by the
// streaming parity suite.
//
// The api service's generate paths, the campaign bridge, and the
// player's course rendering all run StreamCSRArena or
// GenerateCSRArena: no served route builds a trace. The trace entry
// points serve the Fig 9 cross-check, the ddos-analysis example, and
// the benchmark's per-layer replay.
package netsim
