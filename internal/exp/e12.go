package exp

import (
	"checkpointsim/internal/checkpoint"
	"checkpointsim/internal/report"
	"checkpointsim/internal/run"
	"checkpointsim/internal/simtime"
)

// E12Partner compares where checkpoints are committed: a local/parallel-
// filesystem write (modeled as an exclusive CPU seizure whose duration is
// image-size divided by the filesystem bandwidth share) against diskless
// partner checkpointing, where the image travels over the interconnect to a
// buddy node and contends with application traffic. The sweep varies the
// checkpoint image size. One sweep point = one workload across all sizes.
func E12Partner(o Options) ([]*report.Table, error) {
	net := o.net()
	ranks := pick(o, 64, 16)
	iters := pick(o, 60, 25)
	const interval = 10 * simtime.Millisecond
	// Per-rank filesystem bandwidth share for the local-write model: a
	// 1 GB/s burst-buffer-class share of the PFS.
	const fsBytesPerSec = 1 << 30
	sizes := pick(o,
		[]int64{256 * 1024, 1 << 20, 4 << 20},
		[]int64{256 * 1024, 1 << 20})
	workloads := pick(o, []string{"stencil2d", "transpose"}, []string{"stencil2d"})

	t := report.NewTable("E12: local-write vs partner (diskless) checkpointing, τ=10ms",
		"workload", "image", "protocol", "overhead%", "writes", "net-MB-shipped")
	err := sweep(t, o, "E12", workloads, func(sd uint64, w string) (rows, error) {
		prog, err := buildProg(w, ranks, iters, ms(1), 4096, sd)
		if err != nil {
			return nil, err
		}
		tw, err := newTwin(o, net, prog, sd)
		if err != nil {
			return nil, err
		}
		var rs rows
		for _, size := range sizes {
			writeDur := simtime.FromSeconds(float64(size) / fsBytesPerSec)

			// Local write: exclusive seizure sized by PFS bandwidth.
			r, ov, err := tw.run(run.Config{
				Protocol: checkpoint.Config{Kind: checkpoint.KindUncoordinated,
					Interval: interval, Write: writeDur}})
			if err != nil {
				return nil, err
			}
			rs.add(w, size, "local-write", ov, r.Protocol.Stats().Writes, 0.0)

			// Partner: short serialize seizure (memcpy is ~10x the PFS rate)
			// + real network transfer.
			r2, ov2, err := tw.run(run.Config{
				Protocol: checkpoint.Config{Kind: checkpoint.KindPartner,
					Interval: interval, Write: writeDur / 10, CkptBytes: size}})
			if err != nil {
				return nil, err
			}
			shipped, _ := r2.Protocol.(*checkpoint.Partner).Shipped()
			rs.add(w, size, "partner", ov2, r2.Protocol.Stats().Writes,
				float64(shipped)/(1<<20))
		}
		return rs, nil
	})
	if err != nil {
		return nil, err
	}
	t.AddNote("local write = image/1GBps exclusive seizure; partner = image/10 serialize + interconnect transfer")
	return []*report.Table{t}, nil
}
