package chip

import (
	"fmt"

	"scaleout/internal/noc"
	"scaleout/internal/tech"
	"scaleout/internal/workload"
)

// Catalog returns the processor designs the thesis tabulates at a node.
// Core counts and LLC capacities are the published configurations of
// Tables 2.3/2.4 (existing organizations and the ideal processor) and
// Table 3.2 (Scale-Out designs); area, power, performance, PD, and
// perf/Watt are derived from the technology model, and memory channels
// are provisioned from the bandwidth model.
//
// The published configurations themselves follow simple rules: the
// conventional design carries 2MB of LLC per core and is power-limited;
// tiled designs split tiles evenly between core and cache area and are
// area-limited; LLC-optimal designs shrink the aggregate LLC to the
// scale-out sweet spot (8MB for OoO, 6MB for in-order at 40nm); the
// Scale-Out designs replicate the PD-optimal pod.
func Catalog(n tech.Node, ws []workload.Workload) []Spec {
	var specs []Spec
	add := func(s Spec) {
		s.Node = n
		s.Evaluate(ws)
		specs = append(specs, s)
	}

	switch n.FeatureNM {
	case 40:
		add(Spec{Org: ConventionalOrg, Core: tech.Conventional, Cores: 6, LLCMB: 12, Net: noc.Crossbar})
		add(Spec{Org: TiledOrg, Core: tech.OoO, Cores: 20, LLCMB: 20, Net: noc.Mesh})
		add(Spec{Org: LLCOptimalTiledOrg, Core: tech.OoO, Cores: 32, LLCMB: 8, Net: noc.Mesh})
		add(Spec{Org: LLCOptimalTiledIROrg, Core: tech.OoO, Cores: 32, LLCMB: 8, Net: noc.Mesh, IR: true})
		add(Spec{Org: IdealOrg, Core: tech.OoO, Cores: 32, LLCMB: 8, Net: noc.Ideal})
		add(Spec{Org: ScaleOutOrg, Core: tech.OoO, Cores: 32, LLCMB: 8, Pods: 2, Net: noc.Crossbar})
		add(Spec{Org: TiledOrg, Core: tech.InOrder, Cores: 64, LLCMB: 20, Net: noc.Mesh})
		add(Spec{Org: LLCOptimalTiledOrg, Core: tech.InOrder, Cores: 96, LLCMB: 6, Net: noc.Mesh})
		add(Spec{Org: LLCOptimalTiledIROrg, Core: tech.InOrder, Cores: 96, LLCMB: 6, Net: noc.Mesh, IR: true})
		add(Spec{Org: IdealOrg, Core: tech.InOrder, Cores: 96, LLCMB: 6, Net: noc.Ideal})
		add(Spec{Org: ScaleOutOrg, Core: tech.InOrder, Cores: 96, LLCMB: 6, Pods: 3, Net: noc.Crossbar})
	case 20:
		add(Spec{Org: ConventionalOrg, Core: tech.Conventional, Cores: 12, LLCMB: 48, Net: noc.Crossbar})
		add(Spec{Org: TiledOrg, Core: tech.OoO, Cores: 80, LLCMB: 80, Net: noc.Mesh})
		add(Spec{Org: LLCOptimalTiledOrg, Core: tech.OoO, Cores: 112, LLCMB: 28, Net: noc.Mesh})
		add(Spec{Org: LLCOptimalTiledIROrg, Core: tech.OoO, Cores: 112, LLCMB: 28, Net: noc.Mesh, IR: true})
		add(Spec{Org: IdealOrg, Core: tech.OoO, Cores: 112, LLCMB: 28, Net: noc.Ideal})
		add(Spec{Org: ScaleOutOrg, Core: tech.OoO, Cores: 112, LLCMB: 28, Pods: 7, Net: noc.Crossbar})
		add(Spec{Org: TiledOrg, Core: tech.InOrder, Cores: 180, LLCMB: 80, Net: noc.Mesh})
		add(Spec{Org: LLCOptimalTiledOrg, Core: tech.InOrder, Cores: 224, LLCMB: 12, Net: noc.Mesh})
		add(Spec{Org: LLCOptimalTiledIROrg, Core: tech.InOrder, Cores: 192, LLCMB: 12, Net: noc.Mesh, IR: true})
		add(Spec{Org: IdealOrg, Core: tech.InOrder, Cores: 224, LLCMB: 12, Net: noc.Ideal})
		add(Spec{Org: ScaleOutOrg, Core: tech.InOrder, Cores: 192, LLCMB: 12, Pods: 6, Net: noc.Crossbar})
	default:
		panic(fmt.Sprintf("chip: no catalog for node %s", n.Name))
	}
	return specs
}

// TCOCatalog returns the seven server chips of Table 5.1 (40nm): the
// designs compared at datacenter scale, including the single-pod chips.
func TCOCatalog(ws []workload.Workload) []Spec {
	n := tech.N40()
	var specs []Spec
	add := func(s Spec) {
		s.Node = n
		s.Evaluate(ws)
		specs = append(specs, s)
	}
	add(Spec{Org: ConventionalOrg, Core: tech.Conventional, Cores: 6, LLCMB: 12, Net: noc.Crossbar})
	add(Spec{Org: TiledOrg, Core: tech.OoO, Cores: 20, LLCMB: 20, Net: noc.Mesh})
	add(Spec{Org: OnePodOrg, Core: tech.OoO, Cores: 16, LLCMB: 4, Pods: 1, Net: noc.Crossbar})
	add(Spec{Org: ScaleOutOrg, Core: tech.OoO, Cores: 32, LLCMB: 8, Pods: 2, Net: noc.Crossbar})
	add(Spec{Org: TiledOrg, Core: tech.InOrder, Cores: 64, LLCMB: 20, Net: noc.Mesh})
	add(Spec{Org: OnePodOrg, Core: tech.InOrder, Cores: 32, LLCMB: 2, Pods: 1, Net: noc.Crossbar})
	add(Spec{Org: ScaleOutOrg, Core: tech.InOrder, Cores: 96, LLCMB: 6, Pods: 3, Net: noc.Crossbar})
	return specs
}

// Find returns the first catalog entry matching the organization and core
// type, or false.
func Find(specs []Spec, org Organization, core tech.CoreType) (Spec, bool) {
	for _, s := range specs {
		if s.Org == org && s.Core == core {
			return s, true
		}
	}
	return Spec{}, false
}
