package trace

import (
	"mndmst/internal/cluster"
	"mndmst/internal/obs"

	"strconv"
)

// Publish exports a completed run's accounting into reg as labeled
// gauges — the live-scrape form of the same totals Records flattens.
// Gauges carry last-published-run semantics: each completed run
// overwrites the previous one (phase series from an earlier run with a
// different phase set simply stop updating). No-op on a nil registry or
// report.
//
// The gauges read the Report accessors the text Profile renders: seconds
// are maxima across ranks (makespan semantics, like Report.PhaseTime,
// PhaseWall and ExecutionTime), traffic is summed across ranks (like
// Report.TotalBytes/TotalMsgs).
func Publish(reg *obs.Registry, rep *cluster.Report) {
	if reg == nil || rep == nil {
		return
	}
	reg.Gauge("mndmst_run_ranks",
		"rank count of the last completed run").Set(float64(len(rep.Ranks)))
	reg.Gauge("mndmst_run_sim_seconds",
		"simulated makespan of the last completed run (max across ranks)").Set(rep.ExecutionTime())
	reg.Gauge("mndmst_run_wall_seconds",
		"real elapsed seconds of the last completed run (max across ranks)").Set(rep.WallTime())
	reg.Gauge("mndmst_run_bytes_sent",
		"payload bytes sent during the last completed run (sum across ranks)").Set(float64(rep.TotalBytes()))
	reg.Gauge("mndmst_run_msgs",
		"messages sent during the last completed run (sum across ranks)").Set(float64(rep.TotalMsgs()))

	compute := reg.GaugeVec("mndmst_run_phase_compute_seconds",
		"per-phase simulated compute seconds of the last completed run (max across ranks)", "phase")
	comm := reg.GaugeVec("mndmst_run_phase_comm_seconds",
		"per-phase simulated communication seconds of the last completed run (max across ranks)", "phase")
	wall := reg.GaugeVec("mndmst_run_phase_wall_seconds",
		"per-phase real elapsed seconds of the last completed run (max across ranks)", "phase")
	pbytes := reg.GaugeVec("mndmst_run_phase_bytes_sent",
		"per-phase payload bytes of the last completed run (sum across ranks)", "phase")
	pmsgs := reg.GaugeVec("mndmst_run_phase_msgs",
		"per-phase messages of the last completed run (sum across ranks)", "phase")
	for _, phase := range rep.PhaseNames() {
		c, m := rep.PhaseTime(phase)
		var bytes, msgs int64
		for _, r := range rep.Ranks {
			p := r.Phases[phase]
			bytes += p.BytesSent
			msgs += p.Msgs
		}
		compute.With(phase).Set(c)
		comm.With(phase).Set(m)
		wall.With(phase).Set(rep.PhaseWall(phase))
		pbytes.With(phase).Set(float64(bytes))
		pmsgs.With(phase).Set(float64(msgs))
	}
}

// PublishRank exports one rank's label, so that the scrape of a process
// running one TCP rank (cmd/mndmst -lead or -coordinator) says which rank it is.
func PublishRank(reg *obs.Registry, rank int) {
	reg.GaugeVec("mndmst_rank_info",
		"constant 1, labeled with this process's rank", "rank").
		With(strconv.Itoa(rank)).Set(1)
}
