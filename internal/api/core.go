package api

import (
	"context"

	"repro/internal/bridge"
	"repro/internal/core"
	"repro/internal/matrix"
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
	Stats() StatsReport
}

var _ Core = (*Service)(nil)

// ServiceStats is one service's counters: its result cache, its
// in-flight session count, and its arena pool. A cluster proxy sums
// them over its live backends.
type ServiceStats struct {
	Cache    CacheStats        `json:"cache"`
	Sessions int               `json:"sessions"`
	Arena    netsim.ArenaStats `json:"arena"`
}

// Add sums o's counters into s.
func (s *ServiceStats) Add(o ServiceStats) {
	s.Cache.Hits += o.Cache.Hits
	s.Cache.Misses += o.Cache.Misses
	s.Cache.Evictions += o.Cache.Evictions
	s.Cache.Len += o.Cache.Len
	s.Cache.Capacity += o.Cache.Capacity
	s.Sessions += o.Sessions
	addPool(&s.Arena.Entries, o.Arena.Entries)
	addPool(&s.Arena.Events, o.Arena.Events)
}

func addPool(p *matrix.PoolStats, o matrix.PoolStats) {
	p.Gets += o.Gets
	p.Hits += o.Hits
	p.Puts += o.Puts
	p.Drops += o.Drops
	p.Retained += o.Retained
	p.Slabs += o.Slabs
}

// BackendStats is one backend process's entry inside a cluster
// proxy's StatsReport: its base URL and its own counters. A backend
// that failed its stats probe reports the error instead (its counters
// zero) — the cluster report stays servable when one member is down.
type BackendStats struct {
	Backend string `json:"backend"`
	ServiceStats
	Error string `json:"error,omitempty"`
}

// ClusterStats is the proxy-mode extension of a StatsReport: one
// entry per backend, so one scrape of the proxy's /v1/stats sees the
// whole topology instead of only the proxy's own (stateless)
// process.
type ClusterStats struct {
	Backends []BackendStats `json:"backends"`
}

// StatsReport is the /v1/stats payload. A single service reports its
// own counters; a cluster proxy reports the sums over its live
// backends plus the per-backend entries under Cluster.
type StatsReport struct {
	Version string `json:"version"`
	ServiceStats
	Cluster *ClusterStats `json:"cluster,omitempty"`
}

// Stats reports this service's counters.
func (svc *Service) Stats() StatsReport {
	return StatsReport{Version: Version, ServiceStats: ServiceStats{
		Cache:    svc.CacheStats(),
		Sessions: svc.SessionCount(),
		Arena:    svc.ArenaStats(),
	}}
}
