// Datacenter: the Chapter-5 total-cost-of-ownership study. Builds a 20MW
// facility around each server-chip design, itemizes monthly TCO, and
// ranks the designs by performance per TCO dollar and per Watt across
// server memory capacities.
package main

import (
	"fmt"
	"log"

	"scaleout/internal/chip"
	"scaleout/internal/tco"
	"scaleout/internal/tech"
	"scaleout/internal/workload"
)

func main() {
	ws := workload.Suite()
	params := tco.NewParams()

	fmt.Println("== Server chips (Table 5.1) ==")
	specs := chip.TCOCatalog(ws)
	for _, s := range specs {
		fmt.Printf("  %-22s %3d cores  %4.0fMB  %d ch  %3.0fW  %3.0fmm2  $%3.0f\n",
			s.Name(), s.Cores, s.LLCMB, s.MemChannels, s.Power(), s.DieArea(),
			tco.ChipPrice(s))
	}

	fmt.Println("\n== 20MW datacenter, 64GB per 1U server ==")
	var baseTCO, basePerf float64
	for i, s := range specs {
		dc, err := tco.Compose(params, s, 64)
		if err != nil {
			log.Fatal(err)
		}
		b := dc.MonthlyTCO()
		if i == 0 {
			baseTCO, basePerf = b.Total(), dc.PerfIPC
		}
		fmt.Printf("  %-22s %d sockets/1U  %4d racks  perf %.2fx  TCO %.2fx  perf/TCO %6.0f\n",
			s.Name(), dc.Server.Sockets, dc.Racks, dc.PerfIPC/basePerf,
			b.Total()/baseTCO, dc.PerfPerTCO())
	}

	fmt.Println("\n== TCO breakdown for the in-order Scale-Out design ($/month) ==")
	soI, _ := chip.Find(specs, chip.ScaleOutOrg, tech.InOrder)
	dc, err := tco.Compose(params, soI, 64)
	if err != nil {
		log.Fatal(err)
	}
	b := dc.MonthlyTCO()
	fmt.Printf("  infrastructure %10.0f\n  server HW      %10.0f\n"+
		"  networking     %10.0f\n  power          %10.0f\n  maintenance    %10.0f\n"+
		"  total          %10.0f\n",
		b.Infrastructure, b.ServerHW, b.Networking, b.Power, b.Maintenance, b.Total())

	fmt.Println("\n== Memory capacity sensitivity (perf/TCO) ==")
	for _, s := range specs {
		fmt.Printf("  %-22s", s.Name())
		for _, mem := range []int{32, 64, 128} {
			dc, err := tco.Compose(params, s, mem)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %3dGB: %6.0f", mem, dc.PerfPerTCO())
		}
		fmt.Println()
	}
}
