// Package player is the multi-tenant account layer behind twserve:
// the subsystem that finally makes the server know who a student is.
// The paper's premise is students playing an interactive game, and the
// seed has carried the student-facing state all along — quiz sessions
// with persistence and cohort statistics, course progress with
// prerequisite gating — but disconnected from the served pipeline.
// This package connects them.
//
// The pieces:
//
//   - Store: the persistence interface for player records, quiz
//     attempt history, and course-progress snapshots. Two backends
//     ship behind it: a lock-striped in-memory store (MemStore) and a
//     directory-backed store (DirStore) that persists each player as
//     a small set of JSON files — attempt history through the
//     existing quiz.Save/LoadSession format, course state through the
//     course manifest JSON round-trip — every write crash-safe via
//     write-temp-then-rename. Both are safe for concurrent use and
//     share last-write-wins whole-record semantics.
//
//   - Limiter: a per-player token-bucket rate limiter whose bucket
//     table is itself an LRU — idle players' buckets are evicted, so
//     a million transient users cannot grow the limiter without
//     bound. One client exceeding its budget gets a RateLimitError
//     (HTTP 429 with Retry-After) without affecting anyone else.
//
//   - Engine: the behaviour on top — create/look up players, start
//     and submit quiz attempts rendered from internal/bridge learning
//     modules (answers shuffled per attempt with a deterministic
//     permutation, graded against the authored answer), advance and
//     summarize course progress with prerequisite gating, and
//     aggregate cohort mastery statistics via quiz.Cohort. Per-player
//     operations serialize on a striped lock, so concurrent attempts
//     from one player never lose history updates.
//
// Determinism matters here the same way it does in the generation
// engine: every response is a pure function of the store state and
// the request sequence (no timestamps, no global RNG), which is what
// lets the cluster proxy serve player traffic bit-identically to a
// single process. Player state deliberately bypasses the api result
// cache — it is mutable per-user state, the opposite of the cache's
// immutable spec-determined results; only the module/course
// *rendering* inside an attempt is derived from deterministic specs
// (and memoized).
package player
