// Command tables re-renders the paper's tables from campaign results
// saved by cmd/campaign, without re-running any simulation.
//
// Usage:
//
//	tables -in campaign_results.json            # all tables
//	tables -in campaign_results.json -table 3   # just Table III
package main

import (
	"flag"
	"fmt"
	"os"

	"uavres/internal/core"
	"uavres/internal/paperdata"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		in      = flag.String("in", "campaign_results.json", "campaign results JSON")
		table   = flag.Int("table", 0, "render only this table (1-5, 5 = airframe redundancy); 0 = all")
		compare = flag.Bool("compare", false, "append the paper-vs-measured shape comparison")
	)
	flag.Parse()

	if *table == 1 {
		fmt.Print(core.RenderFaultModel())
		return 0
	}

	results, err := core.LoadResultsFile(*in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		return 1
	}
	fmt.Printf("loaded %d case results from %s\n\n", len(results), *in)

	switch *table {
	case 0:
		fmt.Print(core.RenderFaultModel())
		fmt.Println()
		fmt.Println(core.RenderTableII(results))
		fmt.Println(core.RenderTableIII(results))
		fmt.Println(core.RenderTableIV(results))
		if core.SpansAirframes(results) {
			fmt.Println(core.RenderAirframeTable(results))
		}
		if sweep := core.RenderSweepTable(results); sweep != "" {
			fmt.Println(sweep)
		}
	case 2:
		fmt.Println(core.RenderTableII(results))
	case 3:
		fmt.Println(core.RenderTableIII(results))
	case 4:
		fmt.Println(core.RenderTableIV(results))
	case 5:
		fmt.Println(core.RenderAirframeTable(results))
	default:
		fmt.Fprintf(os.Stderr, "tables: unknown table %d\n", *table)
		return 1
	}
	if *compare {
		fmt.Println(paperdata.Render(paperdata.Compare(results)))
		fmt.Println("Table II side-by-side:")
		measured := append([]core.GroupStats{core.GoldStats(results)}, core.ByDuration(results)...)
		fmt.Println(paperdata.SideBySide(paperdata.TableII(), measured))
		fmt.Println("Table III side-by-side:")
		measured = append([]core.GroupStats{core.GoldStats(results)}, core.ByFault(results)...)
		fmt.Println(paperdata.SideBySide(paperdata.TableIII(), measured))
	}
	return 0
}
