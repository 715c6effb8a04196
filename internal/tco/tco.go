// Package tco implements the EETCO-style datacenter total-cost-of-
// ownership model of Chapter 5: infrastructure (land, building, power
// provisioning and cooling), server and networking hardware, power, and
// maintenance, with the Table 5.2 parameters. It also implements the
// InCyte-style processor price model of Section 5.2.2 and the server/rack/
// datacenter composition rules of Section 5.2.3.
package tco

import (
	"fmt"
	"math"

	"scaleout/internal/chip"
)

// Params carries the Table 5.2 cost model constants. NewParams returns
// the thesis values; tests and sensitivity studies may vary them.
type Params struct {
	// Datacenter scale
	DatacenterPowerW float64 // total facility budget (20MW)
	RackPowerW       float64 // per-rack limit (17kW)
	ServersPerRack   int     // 42 x 1U

	// Infrastructure
	RackAreaM2          float64 // rack + inter-rack space
	InfraCostPerM2      float64 // $3000/m^2
	CoolingCostPerWatt  float64 // $12.5/W of critical power
	CoolingSpaceOvhd    float64 // 20% extra floor space
	InfraDepreciationYr float64 // 15 years

	// Efficiency
	SPUE float64 // fans + power supplies (1.3)
	PUE  float64 // facility (1.3)

	// Recurring
	ElectricityPerKWh float64 // $0.07
	PersonnelPerRack  float64 // $200/month

	// Hardware
	NetworkGearW       float64 // 360W per rack
	NetworkGearCost    float64 // $10,000 per rack
	NetworkAmortYr     float64 // 4 years
	MotherboardW       float64 // 25W per 1U
	MotherboardCost    float64 // $330
	DisksPerServer     int
	DiskW              float64 // 10W
	DiskCost           float64 // $180
	DRAMWPerGB         float64 // 1W
	DRAMCostPerGB      float64 // $25
	ServerAmortYr      float64 // 3 years
	DiskMTTFYears      float64 // 100
	DRAMMTTFYearsPerGB float64 // 800 (per GB module group)
	CPUMTTFYears       float64 // 30
}

// NewParams returns the thesis's Table 5.2 parameters.
func NewParams() Params {
	return Params{
		DatacenterPowerW:    20e6,
		RackPowerW:          17e3,
		ServersPerRack:      42,
		RackAreaM2:          0.6 * (1.2 + 1.2),
		InfraCostPerM2:      3000,
		CoolingCostPerWatt:  12.5,
		CoolingSpaceOvhd:    0.20,
		InfraDepreciationYr: 15,
		SPUE:                1.3,
		PUE:                 1.3,
		ElectricityPerKWh:   0.07,
		PersonnelPerRack:    200,
		NetworkGearW:        360,
		NetworkGearCost:     10000,
		NetworkAmortYr:      4,
		MotherboardW:        25,
		MotherboardCost:     330,
		DisksPerServer:      2,
		DiskW:               10,
		DiskCost:            180,
		DRAMWPerGB:          1,
		DRAMCostPerGB:       25,
		ServerAmortYr:       3,
		DiskMTTFYears:       100,
		DRAMMTTFYearsPerGB:  800,
		CPUMTTFYears:        30,
	}
}

// Price model constants (Section 5.2.2), reverse-engineered as the thesis
// did from the Tilera Gx-3036 selling price at a 200K-unit volume with a
// 50% margin: non-recurring engineering and mask costs dominate, so a
// near-doubling of die area adds only ~$50 to the unit price.
const (
	nreAndMaskCost  = 24.4e6 // $ per design
	dieCostPerMM2   = 0.24   // $ per mm^2 (production, yield-adjusted)
	priceMarginMult = 2.0    // 50% margin: price = 2x cost
)

// EstimatePrice returns the selling price of a chip of the given die area
// at the given production volume.
func EstimatePrice(dieAreaMM2 float64, volume int) float64 {
	if volume < 1 {
		volume = 1
	}
	return priceMarginMult * (nreAndMaskCost/float64(volume) + dieCostPerMM2*dieAreaMM2)
}

// DefaultVolume is the production volume assumed in the thesis (200K).
const DefaultVolume = 200000

// ChipPrice returns the modeled price for a catalog design: the known
// market price for the conventional processor (Xeon-class, $800) and the
// volume-estimated price otherwise (Table 5.1).
func ChipPrice(s chip.Spec) float64 {
	if s.Org == chip.ConventionalOrg {
		return 800
	}
	return EstimatePrice(s.DieArea(), DefaultVolume)
}

// ServerConfig describes one 1U server built around a processor design.
type ServerConfig struct {
	Chip        chip.Spec
	ChipPrice   float64
	Sockets     int
	MemoryGB    int
	BoardPowerW float64 // total board power including SPUE at the PSU
}

// Datacenter is a composed facility: racks of identical 1U servers.
type Datacenter struct {
	Params  Params
	Server  ServerConfig
	Racks   int
	PerfIPC float64 // aggregate suite-mean application IPC
}

// socketsPerServer computes how many processors fit a 1U server's power
// budget after the rack- and board-level overheads (Section 5.2.3).
func socketsPerServer(p Params, s chip.Spec, memoryGB int) (int, float64) {
	rackForServers := p.RackPowerW - p.NetworkGearW
	perServer := rackForServers / float64(p.ServersPerRack)
	board := perServer / p.SPUE // fans and PSU losses
	fixed := p.MotherboardW + float64(p.DisksPerServer)*p.DiskW + float64(memoryGB)*p.DRAMWPerGB
	avail := board - fixed
	n := int(avail / s.Power())
	if n < 1 {
		n = 1
	}
	return n, fixed + float64(n)*s.Power()
}

// Compose builds a datacenter around the given chip with the given memory
// per 1U server, under the facility power budget. Its performance is the
// chip's suite-mean IPC as chip.Spec.Evaluate recorded it; a spec that
// was never evaluated is an error.
func Compose(p Params, s chip.Spec, memoryGB int) (Datacenter, error) {
	if memoryGB <= 0 {
		return Datacenter{}, fmt.Errorf("tco: %dGB memory per server", memoryGB)
	}
	if s.IPC() <= 0 {
		return Datacenter{}, fmt.Errorf("tco: %s has no suite IPC; evaluate the spec on a workload suite first", s.Name())
	}
	sockets, boardW := socketsPerServer(p, s, memoryGB)
	server := ServerConfig{
		Chip:        s,
		ChipPrice:   ChipPrice(s),
		Sockets:     sockets,
		MemoryGB:    memoryGB,
		BoardPowerW: boardW,
	}
	// Facility IT power (before PUE) determines the rack count.
	itPower := p.DatacenterPowerW / p.PUE
	rackIT := float64(p.ServersPerRack)*boardW*p.SPUE + p.NetworkGearW
	racks := int(itPower / rackIT)
	if racks < 1 {
		racks = 1
	}
	dc := Datacenter{Params: p, Server: server, Racks: racks}
	dc.PerfIPC = float64(racks*p.ServersPerRack*sockets) * s.IPC()
	return dc, nil
}

// Breakdown itemizes monthly TCO in dollars.
type Breakdown struct {
	Infrastructure float64
	ServerHW       float64
	Networking     float64
	Power          float64
	Maintenance    float64
}

// Total returns the monthly TCO.
func (b Breakdown) Total() float64 {
	return b.Infrastructure + b.ServerHW + b.Networking + b.Power + b.Maintenance
}

// ServerPrice returns the acquisition price of one 1U server.
func (d Datacenter) ServerPrice() float64 {
	s := d.Server
	return float64(s.Sockets)*s.ChipPrice + d.Params.MotherboardCost +
		float64(d.Params.DisksPerServer)*d.Params.DiskCost +
		float64(s.MemoryGB)*d.Params.DRAMCostPerGB
}

// MonthlyTCO computes the itemized monthly total cost of ownership.
func (d Datacenter) MonthlyTCO() Breakdown {
	p := d.Params
	racks := float64(d.Racks)
	servers := racks * float64(p.ServersPerRack)

	// Infrastructure: floor space (with cooling overhead) plus power
	// provisioning and cooling equipment sized to the critical power.
	area := racks * p.RackAreaM2 * (1 + p.CoolingSpaceOvhd)
	critical := servers*d.Server.BoardPowerW*p.SPUE + racks*p.NetworkGearW
	infraCapex := area*p.InfraCostPerM2 + critical*p.CoolingCostPerWatt
	infra := infraCapex / (p.InfraDepreciationYr * 12)

	// Server hardware on a 3-year schedule.
	serverHW := servers * d.ServerPrice() / (p.ServerAmortYr * 12)

	// Networking gear on a 4-year schedule.
	network := racks * p.NetworkGearCost / (p.NetworkAmortYr * 12)

	// Power: consumed IT power times PUE, at the utility rate.
	kwh := critical * p.PUE / 1000 * 24 * 365 / 12
	power := kwh * p.ElectricityPerKWh

	// Maintenance: MTTF-proportional replacements plus personnel.
	diskRepl := servers * float64(p.DisksPerServer) * p.DiskCost / (p.DiskMTTFYears * 12)
	dramRepl := servers * float64(d.Server.MemoryGB) * p.DRAMCostPerGB / (p.DRAMMTTFYearsPerGB * 12)
	cpuRepl := servers * float64(d.Server.Sockets) * d.Server.ChipPrice / (p.CPUMTTFYears * 12)
	personnel := racks * p.PersonnelPerRack
	maint := diskRepl + dramRepl + cpuRepl + personnel

	return Breakdown{
		Infrastructure: infra,
		ServerHW:       serverHW,
		Networking:     network,
		Power:          power,
		Maintenance:    maint,
	}
}

// PerfPerTCO returns performance (aggregate IPC) per monthly TCO dollar,
// scaled by 1000 for readability (IPC per k$/month) — the thesis's
// datacenter efficiency metric (Figure 5.3).
func (d Datacenter) PerfPerTCO() float64 {
	t := d.MonthlyTCO().Total()
	if t == 0 {
		return 0
	}
	return d.PerfIPC / t * 1000
}

// PerfPerWatt returns aggregate IPC per Watt of facility power (Fig 5.4).
func (d Datacenter) PerfPerWatt() float64 {
	return d.PerfIPC / d.Params.DatacenterPowerW * 1000
}

// WithChipPrice returns a copy of the datacenter re-priced with an
// explicit processor price — the Figure 5.5 sensitivity sweep.
func (d Datacenter) WithChipPrice(price float64) Datacenter {
	d.Server.ChipPrice = price
	return d
}

// PriceVsVolume tabulates the estimated price across production volumes,
// used to show how NRE amortization dominates (Section 5.2.2).
func PriceVsVolume(dieAreaMM2 float64, volumes []int) []float64 {
	out := make([]float64, len(volumes))
	for i, v := range volumes {
		out[i] = math.Round(EstimatePrice(dieAreaMM2, v))
	}
	return out
}
