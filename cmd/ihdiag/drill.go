package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/scenario"
)

// runDrill implements `ihdiag drill`: it runs declarative incident
// drills (see internal/scenario and scenarios/) and prints each one's
// verdict and checks, with -v its timeline too. Exit status: 0 when
// every drill passes, 1 when one fails or cannot run, 2 on a bad
// command line.
func runDrill(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ihdiag drill", flag.ContinueOnError)
	verbose := fs.Bool("v", false, "print the drill timeline")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: ihdiag drill [-v] <drill.json> ...")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return flagError(err)
	}
	if fs.NArg() == 0 {
		return usageError("drill: needs at least one drill file")
	}
	failed := 0
	for _, path := range fs.Args() {
		spec, err := loadDrill(path)
		if err != nil {
			return err
		}
		res, err := scenario.Run(spec)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		status := "PASS"
		if !res.Passed {
			status = "FAIL"
			failed++
		}
		fmt.Fprintf(w, "%s  %s (%s)\n", status, res.Name, path)
		if *verbose {
			for _, line := range res.Timeline {
				fmt.Fprintf(w, "      %s\n", line)
			}
		}
		for _, c := range res.Checks {
			mark := "ok"
			if !c.Passed {
				mark = "FAILED"
			}
			fmt.Fprintf(w, "      %-28s %-8s %s\n", c.Assert.Kind, mark, c.Detail)
		}
	}
	if failed > 0 {
		return exitStatus(1)
	}
	return nil
}

// loadDrill reads and validates the drill spec at path.
func loadDrill(path string) (scenario.Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return scenario.Spec{}, err
	}
	defer f.Close()
	spec, err := scenario.Load(f)
	if err != nil {
		return scenario.Spec{}, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}
