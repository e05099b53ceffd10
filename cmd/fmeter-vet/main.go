// fmeter-vet is the repo's contract checker: a multichecker over the
// custom analyzers in internal/lint that machine-check the determinism,
// typed-error, and no-alloc contracts DESIGN-PERF.md states.
// `make lint` runs it over ./...; any finding is a contract
// violation and fails the build with file:line and the contract name.
//
// Usage:
//
//	fmeter-vet [-run regexp] [-list] [packages...]
//
// Packages default to ./... relative to the current directory. Only
// the non-test compilation of each package is analyzed.
package main

import (
	"flag"
	"fmt"
	"os"
	"regexp"

	"repro/internal/lint"
)

func main() {
	runPat := flag.String("run", "", "only run analyzers matching this regexp")
	list := flag.Bool("list", false, "list analyzers and their contracts, then exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: fmeter-vet [-run regexp] [-list] [packages...]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Checks the fmeter contract suite (see internal/lint):\n")
		for _, a := range lint.All() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-12s %s contract\n", a.Name, a.Contract)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%s: checks the %s contract\n%s\n\n", a.Name, a.Contract, a.Doc)
		}
		return
	}
	if *runPat != "" {
		re, err := regexp.Compile(*runPat)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fmeter-vet: bad -run pattern: %v\n", err)
			os.Exit(2)
		}
		var kept []*lint.Analyzer
		for _, a := range analyzers {
			if re.MatchString(a.Name) {
				kept = append(kept, a)
			}
		}
		analyzers = kept
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "fmeter-vet: %v\n", err)
		os.Exit(2)
	}
	pkgs, err := lint.LoadPatterns(cwd, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fmeter-vet: %v\n", err)
		os.Exit(2)
	}
	diags := lint.Run(pkgs, analyzers)
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "fmeter-vet: %d contract violation(s)\n", len(diags))
		os.Exit(1)
	}
}
