package netsim

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/matrix"
	"repro/internal/patterns"
)

// The sparse-end-to-end parity suite: for every catalog scenario the
// CSR analysis path (GenerateCSRArena → matrix.Matrix accessor) must
// produce byte-identical results to the dense path on every analysis
// helper and on the behaviour classifier. This is the tentpole
// invariant that lets large runs skip dense materialization without
// changing a single classification.

// parityNetworks are the sizes the suite checks: the paper's
// standard 10-host network and a scaled one that exercises larger
// casts and real sparsity.
func parityNetworks(t *testing.T) []*Network {
	t.Helper()
	return []*Network{StandardNetwork(), ScaledNetwork(64)}
}

func TestCatalogCSRAnalysisParity(t *testing.T) {
	for _, s := range Scenarios() {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			for _, net := range parityNetworks(t) {
				zones, err := net.Zones()
				if err != nil {
					t.Fatal(err)
				}
				csr, _, err := GenerateCSRArena(context.Background(), nil, s, net, 42, 0, Params{})
				if err != nil {
					t.Fatal(err)
				}
				trace, err := GenerateTraceArena(context.Background(), nil, s, net, 42, 0, Params{})
				if err != nil {
					t.Fatal(err)
				}
				dense, _ := trace.Matrix(net)

				if !csr.ToDense().Equal(dense) {
					t.Fatalf("hosts=%d: CSR densifies differently from the trace's dense fold", net.Len())
				}

				dp, cp := matrix.ProfileOf(dense), matrix.ProfileOf(csr)
				if !reflect.DeepEqual(dp, cp) {
					t.Errorf("hosts=%d: Profile mismatch\ndense: %+v\ncsr:   %+v", net.Len(), dp, cp)
				}

				wantHubs := matrix.SupernodesOf(dense, patterns.SupernodeFanThreshold)
				gotHubs := matrix.SupernodesOf(csr, patterns.SupernodeFanThreshold)
				if !reflect.DeepEqual(gotHubs, wantHubs) {
					t.Errorf("hosts=%d: Supernodes mismatch: %v vs %v", net.Len(), gotHubs, wantHubs)
				}

				db, dconf := patterns.ClassifyBehaviorOf(dense, zones)
				cb, cconf := patterns.ClassifyBehaviorOf(csr, zones)
				if db != cb || dconf != cconf {
					t.Errorf("hosts=%d: ClassifyBehavior mismatch: dense %v (%v), csr %v (%v)",
						net.Len(), db, dconf, cb, cconf)
				}

				dm := patterns.ClassifyMixtureOf(dense, zones)
				cm := patterns.ClassifyMixtureOf(csr, zones)
				if !reflect.DeepEqual(dm, cm) {
					t.Errorf("hosts=%d: ClassifyMixture mismatch: dense %v, csr %v", net.Len(), dm, cm)
				}

				if got, want := patterns.ClassifyTopologyOf(csr, zones), patterns.ClassifyTopologyOf(dense, zones); got != want {
					t.Errorf("hosts=%d: ClassifyTopology mismatch: %v vs %v", net.Len(), got, want)
				}
				ds, dsc := patterns.ClassifyAttackStageOf(dense, zones)
				cs, csc := patterns.ClassifyAttackStageOf(csr, zones)
				if ds != cs || dsc != csc {
					t.Errorf("hosts=%d: ClassifyAttackStage mismatch: %v (%v) vs %v (%v)",
						net.Len(), ds, dsc, cs, csc)
				}

				if roles, err := patterns.AssignDDoSRoles(zones); err == nil {
					dd, ddc := patterns.ClassifyDDoSOf(dense, roles)
					cd, cdc := patterns.ClassifyDDoSOf(csr, roles)
					if dd != cd || ddc != cdc {
						t.Errorf("hosts=%d: ClassifyDDoS mismatch: %v (%v) vs %v (%v)",
							net.Len(), dd, ddc, cd, cdc)
					}
				}
			}
		})
	}
}

// TestGenerateCSRMatchesSparseTraceFold pins the sparse fold to the
// materialized trace folded by Trace.SparseMatrixArena (twsim's
// aggregate path): same seed, same dropped volume, bit-identical CSR.
func TestGenerateCSRMatchesSparseTraceFold(t *testing.T) {
	s, ok := LookupScenario("ddos")
	if !ok {
		t.Fatal("ddos scenario missing")
	}
	net := ScaledNetwork(32)
	csr, stats, err := GenerateCSRArena(context.Background(), nil, s, net, 7, 3, Params{})
	if err != nil {
		t.Fatal(err)
	}
	trace, err := GenerateTraceArena(context.Background(), nil, s, net, 7, 3, Params{})
	if err != nil {
		t.Fatal(err)
	}
	folded, dropped := trace.SparseMatrixArena(nil, net)
	if dropped != stats.Dropped {
		t.Errorf("SparseMatrixArena dropped = %d, want %d", dropped, stats.Dropped)
	}
	if !reflect.DeepEqual(folded, csr) {
		t.Error("Trace.SparseMatrixArena differs from the GenerateCSRArena aggregate")
	}
}
