package main

import (
	"context"
	"math"
	"time"

	"repro/internal/timeseries"
)

// backfillPass ships the whole history into an empty durable repository,
// hour by hour, reading each target's hour back after its batches are
// accepted (the read serve's hour loop makes), then restarts the
// repository and checks it recovered every sample. No model is trained,
// so set-up is the history load itself: from opening the repository to
// the last hour read back.
func backfillPass(ctx context.Context, in *inputs, opt passOpts) (_ *passStats, err error) {
	heapBase := liveHeap()
	began := time.Now()
	p, err := openPass(opt)
	if err != nil {
		return nil, err
	}
	defer p.closeOnError(&err)

	posted := int64(0)
	from := in.start
	for _, hr := range in.history {
		to := from.Add(time.Hour)
		stepBegan := time.Now()
		accepted := make([]time.Time, len(hr.bodies))
		for b, body := range hr.bodies {
			accepted[b] = p.post(body, hr.samples[b], true)
			posted += int64(hr.samples[b])
		}
		for _, k := range p.storeKeys() {
			t := time.Now()
			ser, err := p.series(ctx, k, timeseries.Hourly, from, to)
			done := time.Now()
			if err != nil {
				p.st.check(false, "read back %s at %s: %v", k, from, err)
				continue
			}
			if ser.Len() == 0 || math.IsNaN(ser.Values[0]) {
				continue
			}
			if b := hr.batchOf[in.clusterOf[k.Target]]; b < len(accepted) {
				fresh := done.Sub(accepted[b])
				p.st.fresh.add(fresh)
				p.st.wait.add(fresh - done.Sub(t))
			}
			p.st.targetHours++
		}
		p.st.hourWall.add(time.Since(stepBegan))
		from = to
	}
	p.st.setup = time.Since(began)
	p.setupEnd = time.Now()
	p.st.unaccounted = p.st.hourWall.sum() - p.st.layerBusy()
	p.scrape(ctx)
	p.st.heapBytes = liveHeap() - heapBase
	if err := p.restart(); err != nil {
		return nil, err
	}
	p.st.check(int64(p.st.storedSamples) == posted, "repository holds %d samples, %d were posted", p.st.storedSamples, posted)
	if in.spec.Compacts {
		p.st.check(p.st.rotations > 0 && p.st.compactions > 0, "%d WAL rotations and %d compactions, want both", p.st.rotations, p.st.compactions)
	}
	return p.st, p.finish()
}
