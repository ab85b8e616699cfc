package lint

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"revelio/internal/lint/load"
)

// Main is the revelio-lint CLI: the package loader and the -list and
// -run selection flags. It returns the process exit code;
// cmd/revelio-lint (through the public revelio/lint facade) is a thin
// wrapper over it.
func Main(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("revelio-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listFlag := fs.Bool("list", false, "list analyzers and exit")
	runFlag := fs.String("run", "", "comma-separated analyzer names to run (default: all)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *listFlag {
		for _, a := range Suite() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	var names []string
	if *runFlag != "" {
		names = strings.Split(*runFlag, ",")
	}
	analyzers, err := Select(names)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	root, err := load.ModuleRoot(".")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	pkgs, err := load.Packages(root, fs.Args()...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	exit := 0
	for _, pkg := range pkgs {
		findings, err := Run(pkg, analyzers)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		for _, f := range findings {
			fmt.Fprintln(stdout, f.String())
			exit = 1
		}
	}
	return exit
}
