package obs_test

import (
	"strings"
	"testing"

	"repro/internal/chunk"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/provider"
	"repro/internal/rpc"
	"repro/internal/vmanager"
)

// Every exported row of the provider and version-manager counter tables
// is exactly one /metrics family, carrying the row's help text and the
// type its suffix implies (a _total suffix is a counter, any other a
// gauge).
func TestCounterTablesExported(t *testing.T) {
	network := rpc.NewSimNetwork(netsim.NewFabric(netsim.Config{}))
	srv, err := provider.NewServer(network, "dp", chunk.NewMemStore(), provider.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mgr := vmanager.NewManager()
	defer mgr.Close()
	reg := metrics.NewRegistry()
	obs.RegisterProvider(reg, "dp", func() *provider.Server { return srv })
	obs.RegisterVManager(reg, func() *vmanager.Manager { return mgr })
	var out strings.Builder
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(out.String(), "\n")
	for _, table := range [][]metrics.CounterDef{provider.CounterTable[:], vmanager.CounterTable[:]} {
		for _, def := range table {
			if def.Metric == "" {
				continue
			}
			name := "blobseer_" + def.Plane + "_" + def.Metric
			typ := "gauge"
			if strings.HasSuffix(def.Metric, "_total") {
				typ = "counter"
			}
			var helps, types []string
			for _, l := range lines {
				if h, ok := strings.CutPrefix(l, "# HELP "+name+" "); ok {
					helps = append(helps, h)
				}
				if ty, ok := strings.CutPrefix(l, "# TYPE "+name+" "); ok {
					types = append(types, ty)
				}
			}
			if len(helps) != 1 || helps[0] != def.Help || len(types) != 1 || types[0] != typ {
				t.Errorf("%s: HELP %q TYPE %q, want one family with help %q and type %s", name, helps, types, def.Help, typ)
			}
		}
	}
}
