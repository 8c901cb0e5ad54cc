package netsim

import (
	"fmt"
	"sync"

	"repro/internal/patterns"
)

// Role classifies a simulated host.
type Role int

// Host roles. C2 and Bot refine Adversary/External for DDoS casts.
const (
	RoleWorkstation Role = iota
	RoleServer
	RoleExternal
	RoleAdversary
)

// roleNames holds display names in role order.
var roleNames = [...]string{"workstation", "server", "external", "adversary"}

// String returns the role's display name.
func (r Role) String() string {
	if r < 0 || int(r) >= len(roleNames) {
		return fmt.Sprintf("role(%d)", int(r))
	}
	return roleNames[r]
}

// Zone maps the role onto the blue/grey/red trust zones.
func (r Role) Zone() patterns.Zone {
	switch r {
	case RoleWorkstation, RoleServer:
		return patterns.ZoneBlue
	case RoleExternal:
		return patterns.ZoneGrey
	default:
		return patterns.ZoneRed
	}
}

// Host is one simulated endpoint.
type Host struct {
	// Name is the axis label ("WS1", "ADV3", …).
	Name string
	// Role classifies the host.
	Role Role
}

// Network is an ordered set of hosts; the order defines the traffic
// matrix axis. A Network is immutable once built.
type Network struct {
	hosts  []Host
	byName map[string]int

	// tab holds the tables scenarios read on every chunk, built on a
	// network's first generation rather than in NewNetwork: the api
	// layer builds a network per request, cache hits included, only
	// to read its size.
	once sync.Once
	tab  *chunkTables
}

// chunkTables are a network's derived host lists. Scenarios read them
// directly and must not modify them; the exported accessors that
// compute the same lists hand out fresh copies.
type chunkTables struct {
	labels []string
	roles  [len(roleNames)][]string // host names by role, axis order
	blue   []string                 // workstations and servers, axis order
	// ddos is the standard DDoS cast over Zones, or the error that
	// Zones or the cast assignment reported.
	ddos    patterns.DDoSRoles
	ddosErr error
}

// tables builds the chunk tables once and returns them.
func (n *Network) tables() *chunkTables {
	n.once.Do(func() {
		t := &chunkTables{}
		n.tab = t
		t.labels = n.Labels()
		for r := range t.roles {
			t.roles[r] = n.ByRole(Role(r))
		}
		for _, h := range n.hosts {
			if h.Role == RoleWorkstation || h.Role == RoleServer {
				t.blue = append(t.blue, h.Name)
			}
		}
		zones, err := n.Zones()
		if err != nil {
			t.ddosErr = err
			return
		}
		t.ddos, t.ddosErr = patterns.AssignDDoSRoles(zones)
	})
	return n.tab
}

// NewNetwork builds a network from hosts, rejecting duplicate
// names.
func NewNetwork(hosts []Host) (*Network, error) {
	n := &Network{byName: make(map[string]int, len(hosts))}
	for _, h := range hosts {
		if h.Name == "" {
			return nil, fmt.Errorf("netsim: host with empty name")
		}
		if _, dup := n.byName[h.Name]; dup {
			return nil, fmt.Errorf("netsim: duplicate host %q", h.Name)
		}
		n.byName[h.Name] = len(n.hosts)
		n.hosts = append(n.hosts, h)
	}
	if len(n.hosts) == 0 {
		return nil, fmt.Errorf("netsim: empty network")
	}
	return n, nil
}

// StandardNetwork returns the paper's canonical 10-host network:
// three workstations, one server, two externals, four adversaries —
// matching StandardLabels10 position for position.
func StandardNetwork() *Network {
	n, err := NewNetwork([]Host{
		{Name: "WS1", Role: RoleWorkstation},
		{Name: "WS2", Role: RoleWorkstation},
		{Name: "WS3", Role: RoleWorkstation},
		{Name: "SRV1", Role: RoleServer},
		{Name: "EXT1", Role: RoleExternal},
		{Name: "EXT2", Role: RoleExternal},
		{Name: "ADV1", Role: RoleAdversary},
		{Name: "ADV2", Role: RoleAdversary},
		{Name: "ADV3", Role: RoleAdversary},
		{Name: "ADV4", Role: RoleAdversary},
	})
	if err != nil {
		panic(err) // static host list cannot fail
	}
	return n
}

// ScaledNetwork returns a network of approximately the requested
// size with the standard role mix (~65% workstations, 5% servers,
// 15% externals, 15% adversaries) and the floors every catalog
// scenario's cast needs (≥3 workstations, ≥1 server, ≥2 externals,
// ≥4 adversaries). Hosts are ordered workstations, servers,
// externals, adversaries, preserving the blue→grey→red zone layout.
// Sizes below the 10-host floor return the paper's StandardNetwork.
func ScaledNetwork(hosts int) *Network {
	if hosts <= 10 {
		return StandardNetwork()
	}
	ws, srv, ext, adv := scaledMix(hosts)
	list := make([]Host, 0, ws+srv+ext+adv)
	add := func(n int, prefix string, role Role) {
		for i := 1; i <= n; i++ {
			list = append(list, Host{Name: fmt.Sprintf("%s%d", prefix, i), Role: role})
		}
	}
	add(ws, "WS", RoleWorkstation)
	add(srv, "SRV", RoleServer)
	add(ext, "EXT", RoleExternal)
	add(adv, "ADV", RoleAdversary)
	n, err := NewNetwork(list)
	if err != nil {
		panic(err) // generated host list cannot collide
	}
	return n
}

// ScaledSize is ScaledNetwork(hosts).Len() without building the
// network: the host count a cache or routing key needs.
func ScaledSize(hosts int) int {
	if hosts <= 10 {
		return 10
	}
	ws, srv, ext, adv := scaledMix(hosts)
	return ws + srv + ext + adv
}

// scaledMix is ScaledNetwork's role split above the 10-host floor:
// workstations, servers, externals and adversaries.
func scaledMix(hosts int) (ws, srv, ext, adv int) {
	adv = max(hosts*3/20, 4)
	ext = max(hosts*3/20, 2)
	srv = max(hosts/20, 1)
	ws = max(hosts-adv-ext-srv, 3)
	return ws, srv, ext, adv
}

// Len returns the number of hosts.
func (n *Network) Len() int { return len(n.hosts) }

// Host returns the i-th host.
func (n *Network) Host(i int) Host { return n.hosts[i] }

// Labels returns the axis label list in order.
func (n *Network) Labels() []string {
	out := make([]string, len(n.hosts))
	for i, h := range n.hosts {
		out[i] = h.Name
	}
	return out
}

// Index returns the position of a host name.
func (n *Network) Index(name string) (int, bool) {
	i, ok := n.byName[name]
	return i, ok
}

// ByRole returns the names of all hosts with the role, in order.
func (n *Network) ByRole(r Role) []string {
	// Size the result exactly: one allocation instead of append's
	// doubling ladder.
	count := 0
	for _, h := range n.hosts {
		if h.Role == r {
			count++
		}
	}
	if count == 0 {
		return nil
	}
	out := make([]string, 0, count)
	for _, h := range n.hosts {
		if h.Role == r {
			out = append(out, h.Name)
		}
	}
	return out
}

// Zones derives the blue/grey/red zone boundaries from the host
// order, which must group blue then grey then red (the standard
// layout). It returns an error when roles interleave.
func (n *Network) Zones() (patterns.Zones, error) {
	z := patterns.Zones{N: len(n.hosts)}
	stage := patterns.ZoneBlue
	for i, h := range n.hosts {
		hz := h.Role.Zone()
		if hz < stage {
			return patterns.Zones{}, fmt.Errorf("netsim: host %q (%v) breaks blue→grey→red ordering", h.Name, hz)
		}
		if hz > stage {
			stage = hz
		}
		switch {
		case hz == patterns.ZoneBlue:
			z.BlueEnd = i + 1
		case hz == patterns.ZoneGrey:
			z.GreyEnd = i + 1
		}
	}
	if z.GreyEnd < z.BlueEnd {
		z.GreyEnd = z.BlueEnd
	}
	return z, nil
}
