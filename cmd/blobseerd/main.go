// Command blobseerd runs one BlobSeer role over TCP, so a real
// multi-process deployment can be assembled on one or many machines:
//
//	blobseerd -role vmanager  -listen :4400 -dir /var/blobseer/vm
//	blobseerd -role pmanager  -listen :4401
//	blobseerd -role metadata  -listen :4410 -dir /var/blobseer/meta0
//	blobseerd -role provider  -listen :4420 -pm host:4401 -store disk -dir /var/blobseer/chunks
//	blobseerd -role maint     -vm host:4400 -pm host:4401 -meta host:4410 -gc-interval 1m
//
// It declares -role alone. Each role's flags are declared in internal/node,
// beside the spec they fill, and a role accepts only its own flags and the
// process-wide ones: any other flag exits 2 naming the roles that read it.
// blobseerd -role X -help lists X's flags; internal/node starts the role
// (the cluster harness starts its in-process roles through the same
// constructors).
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"maps"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"

	"repro/internal/node"
	"repro/internal/rpc"
)

func main() {
	args := os.Args[1:]
	role := roleArg(args)
	bind := node.Roles[role]
	if bind == nil {
		fmt.Fprintf(os.Stderr, "blobseerd: -role must be one of %s; blobseerd -role X -help lists X's flags\n", strings.Join(roleNames(), " | "))
		os.Exit(2)
	}
	fs := flag.NewFlagSet("blobseerd -role "+role, flag.ContinueOnError)
	fs.String("role", "", strings.Join(roleNames(), " | "))
	cfg := node.EnvConfig{Network: rpc.NewTCPNetwork()}
	cfg.BindFlags(fs)
	start := bind(fs)
	err := fs.Parse(args) // prints the role's flags on -help and on an error
	switch {
	case errors.Is(err, flag.ErrHelp):
		os.Exit(0)
	case err != nil:
		if name, ok := strings.CutPrefix(err.Error(), "flag provided but not defined: -"); ok {
			if owners := flagOwners(name); len(owners) > 0 {
				fmt.Fprintf(os.Stderr, "blobseerd: -%s is a flag of -role %s; -role %s does not read it\n", name, strings.Join(owners, ", -role "), role)
			}
		}
		os.Exit(2)
	case fs.NArg() > 0:
		fmt.Fprintf(os.Stderr, "blobseerd: unexpected argument %q (flags must come first; blobseerd takes no arguments)\n", fs.Arg(0))
		os.Exit(2)
	}

	env := node.NewEnv(cfg)
	h, err := start(env)
	must(err)
	must(env.ServeMetrics())
	if a := env.MetricsAddr(); a != "" {
		log.Printf("blobseerd: metrics at http://%s/metrics (traces at /debug/traces, profiles at /debug/pprof/ with -pprof)", a)
	}
	log.Printf("blobseerd: role=%s serving at %s", role, h.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("blobseerd: shutting down")
	env.Close()
	h.Close()
}

// roleArg finds -role X (or -role=X, with one dash or two) wherever it is
// among the arguments; the last one given wins, as with any flag.
func roleArg(args []string) (role string) {
	for i, a := range args {
		if !strings.HasPrefix(a, "-") {
			continue
		}
		a = strings.TrimPrefix(a[1:], "-")
		if v, ok := strings.CutPrefix(a, "role="); ok {
			role = v
		} else if a == "role" && i+1 < len(args) {
			role = args[i+1]
		}
	}
	return role
}

// flagOwners names the roles that declare flag name, each bound onto a
// scratch flag set.
func flagOwners(name string) []string {
	var owners []string
	for _, r := range roleNames() {
		fs := flag.NewFlagSet(r, flag.ContinueOnError)
		node.Roles[r](fs)
		if fs.Lookup(name) != nil {
			owners = append(owners, r)
		}
	}
	return owners
}

func roleNames() []string { return slices.Sorted(maps.Keys(node.Roles)) }

func must(err error) {
	if err != nil {
		log.Fatalf("blobseerd: %v", err)
	}
}
