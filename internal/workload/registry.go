package workload

import (
	"fmt"
	"sort"

	"checkpointsim/internal/goal"
)

var registry = map[string]struct {
	build func(CommonConfig) (*goal.Program, error)
	doc   string
}{
	"stencil2d": {stencil2D, "5-point 2D halo exchange + periodic residual allreduce"},
	"stencil3d": {stencil3D, "7-point 3D halo exchange + periodic residual allreduce"},
	"sweep":     {sweep, "2D wavefront sweep, alternating corners"},
	"cg":        {cg, "CG/HPCCG class: ring halo + 2 allreduces per iteration"},
	"transpose": {transpose, "FFT class: alltoall transpose every iteration"},
	"farm":      {farm, "bulk-synchronous master-worker farm"},
	"ep":        {ep, "embarrassingly parallel + final reduce (control case)"},
	"random":    {randomNeighbor, "random pairwise exchanges (unstructured mesh class)"},
	"straggler": {func(c CommonConfig) (*goal.Program, error) { return straggler(c, 0, 2) },
		"2D stencil with one rank computing 2x slower (static imbalance)"},
}

// Names returns the registered workload names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Describe returns the one-line description of a workload name.
func Describe(name string) string { return registry[name].doc }

// FromName validates the configuration and builds the named workload.
func FromName(name string, cfg CommonConfig) (*goal.Program, error) {
	e, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown workload %q (have %v)", name, Names())
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return e.build(cfg)
}
