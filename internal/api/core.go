package api

import (
	"context"

	"repro/internal/bridge"
	"repro/internal/core"
	"repro/internal/netsim"
)

// Core is the full façade surface a front-end serves: every request
// method plus the observability probes. A *Service implements it,
// and so does cluster.Cluster — which is what lets twserve front
// either one local service or a proxied fleet of twserve processes
// without the route table noticing.
type Core interface {
	Generate(ctx context.Context, req GenerateRequest) (*GenerateResult, error)
	GenerateStream(ctx context.Context, req GenerateRequest, emit func(StreamFrame) error) error
	Analyze(ctx context.Context, req AnalyzeRequest) (*AnalyzeResult, error)
	Module(ctx context.Context, req ModuleRequest) (*core.Module, error)
	Campaign(ctx context.Context, req CampaignRequest) (*bridge.Campaign, error)
	Catalog(ctx context.Context) *CatalogResult
	PlayerCreate(ctx context.Context, req PlayerCreateRequest) (*PlayerResult, error)
	PlayerGet(ctx context.Context, req PlayerGetRequest) (*PlayerResult, error)
	PlayerAttemptStart(ctx context.Context, req AttemptStartRequest) (*AttemptResult, error)
	PlayerAttemptSubmit(ctx context.Context, req AttemptSubmitRequest) (*SubmitResult, error)
	PlayerProgress(ctx context.Context, req ProgressRequest) (*ProgressResult, error)
	PlayerMastery(ctx context.Context) (*MasteryResult, error)
	Sessions() []SessionInfo
	CancelSession(id int64) bool
	CacheStats() CacheStats
	Stats() StatsReport
}

var _ Core = (*Service)(nil)

// WorkerStats is one worker's slice of a StatsReport: its cache
// counters (with the per-shard breakdown), its in-flight session
// count, and its arena pool counters.
type WorkerStats struct {
	Worker   int               `json:"worker"`
	Cache    CacheStats        `json:"cache"`
	Sessions int               `json:"sessions"`
	Arena    netsim.ArenaStats `json:"arena"`
	// Backend names the twserve process the worker lives in when the
	// report was aggregated by a cluster proxy; empty in-process.
	Backend string `json:"backend,omitempty"`
}

// BackendStats is one backend process's summary inside a cluster
// proxy's StatsReport: its base URL, how many in-process workers it
// fronts, its fleet-aggregate cache counters, and its in-flight
// session count. A backend that failed its stats probe reports the
// error instead (its counters zero) — the cluster report stays
// servable when one member is down.
type BackendStats struct {
	Backend  string     `json:"backend"`
	Workers  int        `json:"workers"`
	Cache    CacheStats `json:"cache"`
	Sessions int        `json:"sessions"`
	Error    string     `json:"error,omitempty"`
}

// ClusterStats is the proxy-mode extension of a StatsReport: the
// per-backend summaries plus cluster totals, so one scrape of the
// proxy's /v1/stats sees the whole topology instead of only the
// proxy's own (stateless) process.
type ClusterStats struct {
	Backends []BackendStats `json:"backends"`
	// Totals sums every live backend's cache counters; Sessions sums
	// their in-flight counts.
	Totals   CacheStats `json:"totals"`
	Sessions int        `json:"sessions"`
}

// StatsReport is the /v1/stats payload: per-worker, per-shard
// observability for a served deployment. A single service reports
// one worker; a cluster proxy reports every backend's workers
// (renumbered fleet-wide, each tagged with its backend URL) plus the
// Cluster rollup.
type StatsReport struct {
	Version string        `json:"version"`
	Workers []WorkerStats `json:"workers"`
	Cluster *ClusterStats `json:"cluster,omitempty"`
}

// Stats reports this service as a one-worker fleet.
func (svc *Service) Stats() StatsReport {
	return StatsReport{Version: Version, Workers: []WorkerStats{{
		Worker:   0,
		Cache:    svc.CacheStats(),
		Sessions: svc.SessionCount(),
		Arena:    svc.ArenaStats(),
	}}}
}
