package monitor

import (
	"runtime"
	"time"

	"repro/internal/metricstore"
	"repro/internal/obs"
)

// DefaultSelfTarget is the pseudo-target under which the planner
// records its own pipeline metrics. Self-scraped series use the same
// "target/metric" keying as monitored databases, so the planner
// forecasts its own capacity with the very models it serves — the
// dogfooding loop.
const DefaultSelfTarget = "capplan.self"

// Self-scrape metric names: each becomes the metric half of a
// "capplan.self/<metric>" repository key.
const (
	// SelfMetricIngestRate is samples ingested into the repository since
	// the previous scrape (a per-interval rate, 0 on the first scrape).
	SelfMetricIngestRate = "ingest_rate"
	// SelfMetricFitSeconds is model-fit wall time accumulated since the
	// previous scrape, summed across techniques.
	SelfMetricFitSeconds = "fit_seconds"
	// SelfMetricQueueDepth is current pipeline backlog: collector
	// requests in flight plus shipper queue depth.
	SelfMetricQueueDepth = "queue_depth"
	// SelfMetricHeapMB is the process's live heap in MiB.
	SelfMetricHeapMB = "heap_mb"
)

// SelfKeys lists the repository keys a self-scraper writes for target
// ("" → DefaultSelfTarget) — ready for Config.Inventory, so the
// self-targets show up as warming on /api/v1/targets before their first
// training run.
func SelfKeys(target string) []string {
	if target == "" {
		target = DefaultSelfTarget
	}
	keys := make([]string, 0, 4)
	for _, m := range []string{SelfMetricIngestRate, SelfMetricFitSeconds, SelfMetricQueueDepth, SelfMetricHeapMB} {
		keys = append(keys, metricstore.Key{Target: target, Metric: m}.String())
	}
	return keys
}

// SelfScraper periodically samples the planner's own pipeline metrics
// out of its metrics registry and feeds them into the metric repository
// as first-class forecast targets. Counters and histogram sums are
// differenced between scrapes, so the stored series are per-interval
// rates rather than monotone totals (which no seasonal model could fit).
// Not safe for concurrent use — drive it from a single loop.
type SelfScraper struct {
	store  *metricstore.Store
	o      *obs.Observer
	target string

	primed     bool
	lastIngest int64
	lastFitSum float64
}

// NewSelfScraper builds a scraper writing into store under target
// ("" → DefaultSelfTarget), reading pipeline metrics from o's registry.
func NewSelfScraper(store *metricstore.Store, o *obs.Observer, target string) *SelfScraper {
	if target == "" {
		target = DefaultSelfTarget
	}
	return &SelfScraper{store: store, o: o, target: target}
}

// Target returns the pseudo-target the scraper writes under.
func (s *SelfScraper) Target() string { return s.target }

// Sample records one self-observation stamped at, returning the batch
// it stored. The first call establishes counter baselines and records
// zero rates — the series still starts, so the repository's time range
// begins at the first scrape, not the second.
func (s *SelfScraper) Sample(at time.Time) []metricstore.Sample {
	reg := s.o.Registry()
	ingest := reg.CounterValue("metricstore_samples_ingested_total")
	fitSum := reg.HistogramSum("fit_duration_seconds")
	queue := reg.GaugeValue("ingest_inflight") + reg.GaugeValue("shipper_queue_depth")
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / (1 << 20)

	var rate, fit float64
	if s.primed {
		rate = float64(ingest - s.lastIngest)
		if fit = fitSum - s.lastFitSum; fit < 0 {
			fit = 0
		}
	}
	s.primed, s.lastIngest, s.lastFitSum = true, ingest, fitSum

	batch := []metricstore.Sample{
		{Target: s.target, Metric: SelfMetricIngestRate, At: at, Value: rate},
		{Target: s.target, Metric: SelfMetricFitSeconds, At: at, Value: fit},
		{Target: s.target, Metric: SelfMetricQueueDepth, At: at, Value: queue},
		{Target: s.target, Metric: SelfMetricHeapMB, At: at, Value: heapMB},
	}
	s.store.PutBatch(batch)
	s.o.Count("selfscrape_samples_total", int64(len(batch)))
	return batch
}
