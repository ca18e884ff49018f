package stream

import "repro/internal/obs"

// RegisterMetrics exports the stage's backlog and overflow counters and
// which side of the hand-over waits for the other. Depth and drops are
// sampled at scrape time under the stage's lock, so the gauge reflects
// the instant the scrape happened rather than a stale copy; the wait
// counters are added to once per slide by the goroutine that waited.
func (s *IngestStage) RegisterMetrics(r *obs.Registry) {
	r.GaugeFunc("maritime_ingest_pending",
		"Fixes read while an older finished slide still waits for the pipeline.",
		nil, func() float64 { return float64(s.Pending()) })
	r.CounterFunc("maritime_ingest_dropped_total",
		"Fixes discarded by ingest overflow (the pipeline fell more than the capacity behind).",
		nil, func() float64 { return float64(s.Dropped()) })
	r.Gauge("maritime_ingest_capacity",
		"Ingest backlog bound in fixes (0 = lossless: one slide of read-ahead, then backpressure).", nil).Set(float64(s.capacity))
	r.CounterFunc("maritime_pipeline_wait_seconds_total", PipelineWaitHelp,
		obs.Labels{"side": "ingest"}, func() float64 { return float64(s.ingestWait.Load()) / 1e9 })
	r.CounterFunc("maritime_pipeline_wait_seconds_total", PipelineWaitHelp,
		obs.Labels{"side": "pipeline"}, func() float64 { return float64(s.pipelineWait.Load()) / 1e9 })
}

// PipelineWaitHelp is the help text of maritime_pipeline_wait_seconds_total,
// whose side="tracker" series core.System registers.
const PipelineWaitHelp = "Time one side of a pipeline hand-over spent blocked on the other: side=ingest is a finished slide waiting to be taken (the pipeline is the bottleneck), side=pipeline is the pipeline waiting for a slide (feed and decode are), side=tracker is the pipeline waiting for the shards of a slide tracked ahead (tracking is)."
