// Command experiments regenerates the paper's tables and figures from the
// experiment registry (internal/exp). Each experiment prints plain-text
// tables whose shape should match the corresponding paper figure.
//
// Usage:
//
//	experiments -list
//	experiments -run fig4a,fig5 [-scale quick|standard|full] [-seed 1]
//	experiments -all [-scale standard]
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"repro/internal/exp"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	list := flag.Bool("list", false, "list available experiments")
	run := flag.String("run", "", "comma-separated experiment ids")
	all := flag.Bool("all", false, "run every experiment")
	scaleName := flag.String("scale", "quick", "quick | standard | full")
	seed := flag.Int64("seed", 1, "experiment seed")
	flag.Parse()

	var scale exp.Scale
	switch *scaleName {
	case "quick":
		scale = exp.Quick
	case "standard":
		scale = exp.Standard
	case "full":
		scale = exp.FullScale
	default:
		log.Fatalf("unknown scale %q", *scaleName)
	}

	if *list {
		for _, e := range exp.Registry() {
			fmt.Printf("%-9s %s\n          paper: %s\n", e.ID, e.Title, e.Paper)
		}
		return
	}

	var ids []string
	if *all {
		for _, e := range exp.Registry() {
			ids = append(ids, e.ID)
		}
	} else if *run != "" {
		ids = strings.Split(*run, ",")
	} else {
		log.Fatal("nothing to do: pass -list, -run ids, or -all")
	}

	for _, id := range ids {
		id = strings.TrimSpace(id)
		e, ok := exp.ByID(id)
		if !ok {
			log.Fatalf("unknown experiment %q (use -list)", id)
		}
		fmt.Printf("### %s — %s [%s scale]\n", e.ID, e.Title, scale)
		fmt.Printf("paper expectation: %s\n\n", e.Paper)
		start := time.Now()
		tables, err := e.Run(scale, *seed)
		if err != nil {
			log.Fatalf("%s: %v", e.ID, err)
		}
		for _, t := range tables {
			fmt.Println(t.Render())
		}
		fmt.Printf("(%s completed in %s)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}
