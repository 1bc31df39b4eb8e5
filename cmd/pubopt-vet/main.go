// Command pubopt-vet is the repo's static-analysis multichecker: it runs
// the internal/analysis suite (hotpathalloc, floatcmp, detrand, lockhold,
// streamcheck, allowcheck) under the `go vet -vettool` protocol.
//
// Usage:
//
//	go build -o /tmp/pubopt-vet ./cmd/pubopt-vet
//	go vet -vettool=/tmp/pubopt-vet ./...
//
// The tool speaks the unit-checker protocol the go command drives:
//
//	pubopt-vet -V=full        print a version fingerprint (build caching)
//	pubopt-vet -flags         print supported flags as JSON
//	pubopt-vet help           describe the analyzers
//	pubopt-vet <file>.cfg     analyze one package unit (invoked by go vet)
//
// It is implemented entirely on the standard library (go/parser, go/types,
// go/importer): the unit's dependencies are type-checked from the export
// data the go command lists in the .cfg file, so a full ./... run costs
// little more than the type checks go vet performs anyway. See
// docs/ANALYSIS.md for the rules and the suppression convention.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/netecon-sim/publicoption/internal/analysis"
)

func main() {
	progname := "pubopt-vet"
	args := os.Args[1:]

	// Flag handling is deliberately manual: the go command probes with
	// exactly `-V=full` and `-flags`, then invokes `<tool> [flags] x.cfg`.
	jsonOut := false
	var cfg string
	for _, arg := range args {
		switch {
		case arg == "-V=full" || arg == "--V=full":
			printVersion(progname)
			return
		case arg == "-V" || arg == "--V":
			fmt.Printf("%s version devel\n", progname)
			return
		case arg == "-flags" || arg == "--flags":
			printFlagDefs()
			return
		case arg == "-json" || arg == "--json":
			jsonOut = true
		case arg == "help" || arg == "-help" || arg == "--help" || arg == "-h":
			printHelp(progname)
			return
		case strings.HasSuffix(arg, ".cfg"):
			cfg = arg
		default:
			fatalf("unrecognized argument %q; this tool is driven by `go vet -vettool` (see `%s help`)", arg, progname)
		}
	}
	if cfg == "" {
		printHelp(progname)
		os.Exit(1)
	}
	os.Exit(runUnit(cfg, jsonOut))
}

// printVersion emits the fingerprint line the go command hashes into its
// build cache key: change the binary and every package re-vets; don't, and
// warm runs are free.
func printVersion(progname string) {
	exe, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	f, err := os.Open(exe)
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n", progname, h.Sum(nil)[:16])
}

// printFlagDefs advertises the supported flags in the JSON shape the go
// command expects from a vet tool.
func printFlagDefs() {
	type jsonFlag struct {
		Name  string `json:"Name"`
		Bool  bool   `json:"Bool"`
		Usage string `json:"Usage"`
	}
	defs := []jsonFlag{
		{Name: "V", Bool: false, Usage: "print version and exit"},
		{Name: "flags", Bool: true, Usage: "print flags in JSON"},
		{Name: "json", Bool: true, Usage: "emit JSON output"},
	}
	out, err := json.Marshal(defs)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(out))
}

func printHelp(progname string) {
	fmt.Printf("%s: pubopt's repo-specific static-analysis suite\n\n", progname)
	fmt.Printf("Build it, then run it over the module with:\n\n\tgo build -o /tmp/pubopt-vet ./cmd/pubopt-vet\n\tgo vet -vettool=/tmp/pubopt-vet ./...\n\n")
	fmt.Printf("Registered analyzers:\n\n")
	for _, a := range analysis.Suite() {
		fmt.Printf("\t%-14s %s\n", a.Name, a.Doc)
	}
	fmt.Printf("\nSuppress a deliberate exception on its own line or the line above:\n\n")
	fmt.Printf("\t//pubopt:allow(<analyzer>): <reason>\n\nSee docs/ANALYSIS.md for each rule's rationale.\n")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pubopt-vet: "+format+"\n", args...)
	os.Exit(1)
}
