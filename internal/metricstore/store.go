// Package metricstore implements the paper's central repository (§5.1):
// "The values from the metrics are then stored, centrally, in a repository
// where they are aggregated into hourly values." It accepts raw samples
// from agents, serves aggregated series to the learning engine, and can
// persist itself to disk.
//
// The repository is sharded: Key{Target, Metric} hashes (FNV-1a) onto a
// power-of-two number of independent shards, each with its own lock,
// sorted sample slices, forecast snapshots and trace lineage, so a
// remote-write PutBatch and a concurrent Series range query on different
// keys never contend on one mutex. Opened with a directory, every shard
// is additionally backed by an append-only WAL (see wal.go) with segment
// rotation, crash-recovery replay at startup, and background compaction
// of rotated segments into sorted snapshots with bounded retention
// (see compact.go).
package metricstore

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/timeseries"
)

// Sample is one agent observation.
type Sample struct {
	// Target identifies the monitored object, e.g. "cdbm011".
	Target string
	// Metric names the measurement, e.g. "cpu".
	Metric string
	// At is the poll timestamp.
	At time.Time
	// Value is the observed value.
	Value float64
}

// Key identifies a stored series.
type Key struct {
	Target string
	Metric string
}

// String implements fmt.Stringer: the "target/metric" form the model
// store, the monitor and the JSON endpoints key champions by.
func (k Key) String() string { return k.Target + "/" + k.Metric }

// ParseKey inverts Key.String. It splits at the last '/', so a target
// may itself contain slashes; ok is false when there is no '/' or either
// side is empty (the ingest wire rejects such samples).
func ParseKey(s string) (k Key, ok bool) {
	i := strings.LastIndexByte(s, '/')
	if i <= 0 || i == len(s)-1 {
		return Key{}, false
	}
	return Key{Target: s[:i], Metric: s[i+1:]}, true
}

// ForecastSnapshot is a compact copy of the last production forecast
// stored for one key: the per-step mean, interval bounds and standard
// errors the monitor scores arriving actuals against. Persisting it
// next to the samples means a restarted planner can keep scoring
// calibration against the forecasts the previous process promised,
// instead of starting blind until the first refit.
type ForecastSnapshot struct {
	Key   Key
	Start time.Time
	// Step is the forecast step width (time between entries).
	Step  time.Duration
	Level float64
	Mean  []float64
	Lower []float64
	Upper []float64
	SE    []float64
	// FittedAt stamps when the champion that produced it was learned.
	FittedAt time.Time
}

// DefaultShards is the shard count used when Options.Shards is zero.
const DefaultShards = 16

// Options configures Open.
type Options struct {
	// Shards is the shard count, rounded up to a power of two
	// (0 = DefaultShards). A durable directory remembers the count it
	// was created with; reopening honors the on-disk count.
	Shards int
	// Dir is the durable repository directory. Empty keeps the store
	// in-memory only (the seed behavior).
	Dir string
	// Retention drops samples older than this horizon — measured per key
	// from the key's newest sample — at compaction time. 0 keeps
	// everything.
	Retention time.Duration
	// SegmentBytes rotates a shard's WAL segment once it exceeds this
	// size (0 = 4 MiB). Rotated segments are folded into snapshots by
	// the background compactor.
	SegmentBytes int64
	// Sync is the WAL fsync policy.
	Sync SyncPolicy
}

// ReplayStats summarises the crash-recovery replay an Open performed.
type ReplayStats struct {
	// Segments is the number of WAL segments read.
	Segments int
	// Samples and Forecasts count the replayed records.
	Samples   int
	Forecasts int
	// Torn counts segments whose tail was cut at a damaged frame — the
	// expected signature of a crash mid-append.
	Torn int
}

// shard is one independent slice of the repository. All fields are
// guarded by mu; the WAL (when present) is only touched under the write
// lock, so log order always matches memory order.
type shard struct {
	store *Store
	idx   int
	mu    sync.RWMutex
	// samples is kept sorted by time per key.
	samples   map[Key][]Sample
	forecasts map[Key]ForecastSnapshot
	// lastTrace remembers, per key, the traceparent of the most recent
	// traced batch that wrote the key. It is the async hand-off that lets
	// the monitor/refit pipeline continue the trace of the batch that
	// delivered the data, long after the ingest request returned. Not
	// persisted: a trace is an operational artefact, not data.
	lastTrace map[Key]string
	wal       *wal
	// one is scratch space so Put can reuse the batch append path
	// without allocating.
	one [1]Sample
}

// Store is a concurrency-safe, sharded metric repository.
type Store struct {
	shards []*shard
	mask   uint32
	obsv   atomic.Pointer[obs.Observer]

	// Durable-mode state (dir != "").
	durable   bool
	dir       string
	retention time.Duration
	replay    ReplayStats

	compactMu  sync.Mutex
	compactCh  chan struct{}
	closeCh    chan struct{}
	closeOnce  sync.Once
	closed     atomic.Bool
	wg         sync.WaitGroup
	replayOnce sync.Once
}

// New returns an empty in-memory Store with DefaultShards shards.
func New() *Store {
	s, err := Open(Options{})
	if err != nil {
		// In-memory opens touch no I/O and cannot fail.
		panic(err)
	}
	return s
}

// Open returns a Store configured by opts. With a directory it loads the
// newest per-shard snapshot, replays the WAL segments written after it
// (tolerating a torn final record from a crash mid-append), and starts
// the background compactor; Recovered reports what the replay restored.
func Open(opts Options) (*Store, error) {
	n := opts.Shards
	if n <= 0 {
		n = DefaultShards
	}
	n = ceilPow2(n)
	if opts.Dir != "" {
		// A directory remembers its shard count: the key→shard hash must
		// stay stable across restarts or replay would scatter keys.
		dn, err := loadOrInitMeta(opts.Dir, n)
		if err != nil {
			return nil, err
		}
		n = dn
	}
	segBytes := opts.SegmentBytes
	if segBytes <= 0 {
		segBytes = defaultSegmentBytes
	}
	s := &Store{
		shards:    make([]*shard, n),
		mask:      uint32(n - 1),
		durable:   opts.Dir != "",
		dir:       opts.Dir,
		retention: opts.Retention,
		compactCh: make(chan struct{}, 1),
		closeCh:   make(chan struct{}),
	}
	for i := range s.shards {
		sh := &shard{
			store:     s,
			idx:       i,
			samples:   make(map[Key][]Sample),
			forecasts: make(map[Key]ForecastSnapshot),
			lastTrace: make(map[Key]string),
		}
		if s.durable {
			w, state, st, err := openWAL(shardDir(opts.Dir, i), segBytes, opts.Sync)
			if err != nil {
				return nil, fmt.Errorf("metricstore: open shard %d: %w", i, err)
			}
			sh.wal = w
			if state.samples != nil {
				sh.samples = state.samples
			}
			if state.forecasts != nil {
				sh.forecasts = state.forecasts
			}
			s.replay.Segments += st.segments
			s.replay.Samples += st.samples
			s.replay.Forecasts += st.forecasts
			s.replay.Torn += st.torn
		}
		s.shards[i] = sh
	}
	if s.durable {
		s.wg.Add(1)
		go s.compactLoop()
	}
	return s, nil
}

// Shards returns the store's shard count (after power-of-two rounding
// and the on-disk override).
func (s *Store) Shards() int { return len(s.shards) }

// Recovered reports the WAL replay the Open performed (zero for
// in-memory stores).
func (s *Store) Recovered() ReplayStats { return s.replay }

// Close stops the compactor and flushes and closes every shard WAL.
// In-memory stores close trivially. The store must not be used after
// Close.
func (s *Store) Close() error {
	var first error
	s.closeOnce.Do(func() {
		s.closed.Store(true)
		if !s.durable {
			return
		}
		close(s.closeCh)
		s.wg.Wait()
		s.compactMu.Lock()
		defer s.compactMu.Unlock()
		for _, sh := range s.shards {
			sh.mu.Lock()
			if err := sh.wal.close(); err != nil && first == nil {
				first = err
			}
			sh.mu.Unlock()
		}
	})
	return first
}

// SetObserver attaches an observer for repository counters
// (metricstore_samples_ingested_total, metricstore_range_queries_total,
// metricstore_wal_*, metricstore_compactions_total, ...). nil detaches.
// On a durable store the first attach also publishes the startup replay
// counters, so the recovery that happened before the observer existed
// still lands on /metrics.
func (s *Store) SetObserver(o *obs.Observer) {
	s.obsv.Store(o)
	if o == nil || !s.durable {
		return
	}
	s.replayOnce.Do(func() {
		o.Count("metricstore_wal_replayed_samples_total", int64(s.replay.Samples))
		o.Count("metricstore_wal_replayed_forecasts_total", int64(s.replay.Forecasts))
		o.Count("metricstore_wal_torn_records_total", int64(s.replay.Torn))
	})
}

// observer reads the attached observer (nil-safe to use).
func (s *Store) observer() *obs.Observer { return s.obsv.Load() }

// shardFor hashes k onto its shard: FNV-1a over Target, a zero
// separator byte, then Metric, masked to the power-of-two shard count.
func (s *Store) shardFor(k Key) *shard {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(k.Target); i++ {
		h = (h ^ uint32(k.Target[i])) * prime32
	}
	h *= prime32 // zero separator: ("ab","c") must not collide with ("a","bc")
	for i := 0; i < len(k.Metric); i++ {
		h = (h ^ uint32(k.Metric[i])) * prime32
	}
	return s.shards[h&s.mask]
}

// Put records one sample. Samples may arrive out of order; duplicates
// (same key and timestamp) overwrite the previous value.
func (s *Store) Put(smp Sample) {
	s.observer().Count("metricstore_samples_ingested_total", 1)
	k := Key{Target: smp.Target, Metric: smp.Metric}
	sh := s.shardFor(k)
	sh.mu.Lock()
	sh.one[0] = smp
	sh.logSamples(sh.one[:])
	sh.samples[k] = insertSample(sh.samples[k], smp)
	sh.mu.Unlock()
}

// insertSample adds smp to a time-sorted slice, overwriting an existing
// sample at the same timestamp.
func insertSample(list []Sample, smp Sample) []Sample {
	// Fast path: append in order.
	if n := len(list); n == 0 || smp.At.After(list[n-1].At) {
		return append(list, smp)
	}
	// Find the insertion point.
	i := sort.Search(len(list), func(i int) bool { return !list[i].At.Before(smp.At) })
	if i < len(list) && list[i].At.Equal(smp.At) {
		list[i] = smp
		return list
	}
	list = append(list, Sample{})
	copy(list[i+1:], list[i:])
	list[i] = smp
	return list
}

// PutBatch records many samples under a single lock acquisition per
// touched shard and a single ingestion-counter bump: each shard's
// sub-batch is walked in order (so later duplicates win exactly as with
// sequential Put) and each sample is merged into its key's sorted
// slice, with the slice and map write cached across runs of the same
// key. Batches for different shards never contend.
func (s *Store) PutBatch(batch []Sample) {
	if len(batch) == 0 {
		return
	}
	s.observer().Count("metricstore_samples_ingested_total", int64(len(batch)))
	if len(s.shards) == 1 {
		s.shards[0].putBatch(batch)
		return
	}
	// Fast path: a shipper batch often carries one key, hence one shard.
	first := s.shardFor(Key{Target: batch[0].Target, Metric: batch[0].Metric})
	single := true
	for i := 1; i < len(batch); i++ {
		if s.shardFor(Key{Target: batch[i].Target, Metric: batch[i].Metric}) != first {
			single = false
			break
		}
	}
	if single {
		first.putBatch(batch)
		return
	}
	parts := make([][]Sample, len(s.shards))
	for i := range batch {
		sh := s.shardFor(Key{Target: batch[i].Target, Metric: batch[i].Metric})
		idx := sh.idx
		parts[idx] = append(parts[idx], batch[i])
	}
	for idx, p := range parts {
		if len(p) > 0 {
			s.shards[idx].putBatch(p)
		}
	}
}

// putBatch merges an in-order sub-batch under this shard's lock,
// logging it to the WAL first so log order matches memory order.
func (sh *shard) putBatch(batch []Sample) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.logSamples(batch)
	var (
		k    Key
		list []Sample
		have bool
	)
	for i := range batch {
		nk := Key{Target: batch[i].Target, Metric: batch[i].Metric}
		if !have || nk != k {
			if have {
				sh.samples[k] = list
			}
			k, list, have = nk, sh.samples[nk], true
		}
		list = insertSample(list, batch[i])
	}
	sh.samples[k] = list
}

// logSamples appends batch to the shard WAL (nop in-memory). Called
// under the shard write lock. A WAL failure degrades durability, never
// availability: the in-memory write proceeds and the error is counted.
func (sh *shard) logSamples(batch []Sample) {
	if sh.wal == nil {
		return
	}
	n, rotated, err := sh.wal.appendSamples(batch)
	sh.afterAppend(int64(len(batch)), n, rotated, err)
}

// afterAppend publishes WAL append accounting and pokes the compactor
// after a rotation.
func (sh *shard) afterAppend(records, bytes int64, rotated bool, err error) {
	o := sh.store.observer()
	o.Count("metricstore_wal_records_total", records)
	o.Count("metricstore_wal_bytes_total", bytes)
	if rotated {
		o.Count("metricstore_wal_rotations_total", 1)
		sh.store.pokeCompactor()
	}
	if err != nil {
		o.Count("metricstore_wal_errors_total", 1)
		o.Error("wal append failed", "err", err)
	}
}

// PutBatchTraced is PutBatch plus trace lineage: every key the batch
// touches remembers traceparent as its last writer, retrievable with
// LastTrace. An empty traceparent leaves the recorded lineage untouched
// (a redelivered untraced batch must not erase a traced predecessor).
func (s *Store) PutBatchTraced(batch []Sample, traceparent string) {
	s.PutBatch(batch)
	if traceparent == "" || len(batch) == 0 {
		return
	}
	parts := make([][]Key, len(s.shards))
	for i := range batch {
		k := Key{Target: batch[i].Target, Metric: batch[i].Metric}
		idx := s.shardFor(k).idx
		parts[idx] = append(parts[idx], k)
	}
	for idx, keys := range parts {
		if len(keys) == 0 {
			continue
		}
		sh := s.shards[idx]
		sh.mu.Lock()
		for _, k := range keys {
			sh.lastTrace[k] = traceparent
		}
		sh.mu.Unlock()
	}
}

// LastTrace returns the traceparent of the last traced batch that wrote
// k ("" when the key has only ever seen untraced writes).
func (s *Store) LastTrace(k Key) string {
	sh := s.shardFor(k)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.lastTrace[k]
}

// Keys lists the stored series identities, sorted.
func (s *Store) Keys() []Key {
	var out []Key
	for _, sh := range s.shards {
		sh.mu.RLock()
		for k := range sh.samples {
			out = append(out, k)
		}
		sh.mu.RUnlock()
	}
	sortKeys(out)
	return out
}

// sortKeys orders keys by target then metric.
func sortKeys(out []Key) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Target != out[j].Target {
			return out[i].Target < out[j].Target
		}
		return out[i].Metric < out[j].Metric
	})
}

// Count returns the number of raw samples held for a key.
func (s *Store) Count(k Key) int {
	sh := s.shardFor(k)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return len(sh.samples[k])
}

// Raw returns the raw samples for a key in time order (copy).
func (s *Store) Raw(k Key) []Sample {
	sh := s.shardFor(k)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return append([]Sample(nil), sh.samples[k]...)
}

// Series assembles a regular time series from the raw samples of k at the
// given frequency between from (inclusive) and to (exclusive). Buckets
// with no samples are NaN (missing); buckets with several samples are
// averaged. When to-from is not a whole multiple of the frequency step
// the bucket count rounds up, so samples in the trailing partial bucket
// aggregate instead of silently dropping. This is the repository's
// "aggregate into hourly values" step when freq is Hourly.
func (s *Store) Series(k Key, freq timeseries.Frequency, from, to time.Time) (*timeseries.Series, error) {
	if !to.After(from) {
		return nil, fmt.Errorf("metricstore: empty interval [%v, %v)", from, to)
	}
	step := freq.Step()
	n := int((to.Sub(from) + step - 1) / step)
	if n <= 0 {
		return nil, fmt.Errorf("metricstore: interval shorter than one %v step", freq)
	}
	sums := make([]float64, n)
	counts := make([]int, n)

	sh := s.shardFor(k)
	sh.mu.RLock()
	list := sh.samples[k]
	// Binary search to the first sample >= from.
	i := sort.Search(len(list), func(i int) bool { return !list[i].At.Before(from) })
	for ; i < len(list) && list[i].At.Before(to); i++ {
		b := int(list[i].At.Sub(from) / step)
		if b < 0 || b >= n {
			continue
		}
		sums[b] += list[i].Value
		counts[b]++
	}
	sh.mu.RUnlock()

	values := make([]float64, n)
	aggregated := 0
	for b := range values {
		if counts[b] == 0 {
			values[b] = math.NaN()
		} else {
			values[b] = sums[b] / float64(counts[b])
			aggregated++
		}
	}
	o := s.observer()
	o.Count("metricstore_range_queries_total", 1)
	o.Count("metricstore_aggregated_buckets_total", int64(aggregated))
	o.Debug("range query", "key", k.String(), "freq", freq.String(),
		"buckets", n, "aggregated", aggregated)
	return timeseries.New(k.String(), from, freq, values), nil
}

// TimeRange returns the first and last sample times for k, or ok=false
// when the key holds no samples.
func (s *Store) TimeRange(k Key) (first, last time.Time, ok bool) {
	sh := s.shardFor(k)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	list := sh.samples[k]
	if len(list) == 0 {
		return time.Time{}, time.Time{}, false
	}
	return list[0].At, list[len(list)-1].At, true
}

// PutForecast stores (or replaces) the last-forecast snapshot for
// fs.Key, logging it to the WAL so a restarted planner keeps the
// promise it is scored against.
func (s *Store) PutForecast(fs ForecastSnapshot) {
	sh := s.shardFor(fs.Key)
	sh.mu.Lock()
	if sh.wal != nil {
		n, rotated, err := sh.wal.appendForecast(fs)
		sh.afterAppend(1, n, rotated, err)
	}
	sh.forecasts[fs.Key] = fs
	sh.mu.Unlock()
	s.observer().Count("metricstore_forecast_snapshots_total", 1)
}

// Forecast returns the stored last-forecast snapshot for k.
func (s *Store) Forecast(k Key) (ForecastSnapshot, bool) {
	sh := s.shardFor(k)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	fs, ok := sh.forecasts[k]
	return fs, ok
}

// ForecastKeys lists the keys holding a forecast snapshot.
func (s *Store) ForecastKeys() []Key {
	var out []Key
	for _, sh := range s.shards {
		sh.mu.RLock()
		for k := range sh.forecasts {
			out = append(out, k)
		}
		sh.mu.RUnlock()
	}
	sortKeys(out)
	return out
}

// persisted is the gob wire format of the legacy whole-image snapshot
// (and of the per-shard compaction snapshots). Forecasts was added
// after Samples; gob tolerates its absence, so images saved by older
// builds load cleanly (with no snapshots).
type persisted struct {
	Samples   map[Key][]Sample
	Forecasts map[Key]ForecastSnapshot
}

// Save writes the full repository to w in gob format. The state is
// deep-copied under each shard's read lock and encoded outside every
// lock, so a large snapshot never stalls concurrent PutBatch traffic
// (the copy is consistent per shard, not across shards — an ingest
// batch landing mid-Save may be partially included, exactly as one
// landing just before or after would be).
func (s *Store) Save(w io.Writer) error {
	p := persisted{
		Samples:   make(map[Key][]Sample),
		Forecasts: make(map[Key]ForecastSnapshot),
	}
	for _, sh := range s.shards {
		sh.mu.RLock()
		for k, list := range sh.samples {
			// Deep copy: insertSample mutates slices in place, so sharing
			// the backing array with a concurrent writer would race.
			p.Samples[k] = append([]Sample(nil), list...)
		}
		for k, fs := range sh.forecasts {
			p.Forecasts[k] = fs
		}
		sh.mu.RUnlock()
	}
	return gob.NewEncoder(w).Encode(p)
}

// Load replaces the repository contents with a previously saved image.
// Trace lineage is reset: keys absent from the image must not keep
// stale traceparents from the pre-load process, and keys present in it
// were written by whatever produced the image, not by a live batch. On
// a durable store the WAL restarts from the loaded image so recovery
// reflects it.
func (s *Store) Load(r io.Reader) error {
	var p persisted
	if err := gob.NewDecoder(r).Decode(&p); err != nil {
		return fmt.Errorf("metricstore: load: %w", err)
	}
	type part struct {
		samples   map[Key][]Sample
		forecasts map[Key]ForecastSnapshot
	}
	parts := make([]part, len(s.shards))
	for i := range parts {
		parts[i] = part{
			samples:   make(map[Key][]Sample),
			forecasts: make(map[Key]ForecastSnapshot),
		}
	}
	for k, list := range p.Samples {
		idx := s.shardFor(k).idx
		parts[idx].samples[k] = list
	}
	for k, fs := range p.Forecasts {
		idx := s.shardFor(k).idx
		parts[idx].forecasts[k] = fs
	}
	var first error
	for i, sh := range s.shards {
		sh.mu.Lock()
		sh.samples = parts[i].samples
		sh.forecasts = parts[i].forecasts
		sh.lastTrace = make(map[Key]string)
		if sh.wal != nil {
			if err := sh.wal.reset(); err != nil && first == nil {
				first = err
			}
			for _, list := range parts[i].samples {
				if _, _, err := sh.wal.appendSamples(list); err != nil && first == nil {
					first = err
				}
			}
			for _, fs := range parts[i].forecasts {
				if _, _, err := sh.wal.appendForecast(fs); err != nil && first == nil {
					first = err
				}
			}
		}
		sh.mu.Unlock()
	}
	if first != nil {
		return fmt.Errorf("metricstore: load: rewrite wal: %w", first)
	}
	return nil
}

// ceilPow2 rounds n up to the next power of two (minimum 1, capped at
// 1024 — past that the per-shard maps dominate any contention win).
func ceilPow2(n int) int {
	if n < 1 {
		return 1
	}
	if n > 1024 {
		n = 1024
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
