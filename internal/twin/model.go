package twin

import (
	"math"

	"latsim/internal/config"
	"latsim/internal/dirset"
	"latsim/internal/stats"
)

// The model's fitted constants. They are global — shared by every
// application and configuration — and deliberately few: the twin's
// predictive power must come from the mechanistic terms (service-time
// composition, queueing, drain and utilization models), with these
// constants only absorbing second-order effects the mechanisms ignore.
// DESIGN.md §S-twin documents what each one stands for, the fitting
// procedure and the configurations they were fitted on.
const (
	// idleStretchExp (alpha) maps the relative change in single-context
	// stall demand to the relative change in multi-context all-idle
	// time. Sub-linear (< 1) because part of the idle time is
	// structural: correlated stalls (barriers) and burstiness that more
	// stall-demand headroom cannot fill.
	idleStretchExp = 0.70
	// syncStretchExp (gamma) maps the relative change in non-sync
	// execution time to the relative change in synchronization stall.
	// Sub-linear because a uniform slowdown perturbs lock hold times and
	// barrier imbalance less than proportionally.
	syncStretchExp = 0.85
	// switchOverlap (kappa) is the fraction of added context-switch
	// cycles hidden under time the processor would have idled anyway
	// (penalty 16 vs the references' penalty 4).
	switchOverlap = 0.25
	// rcWriteResidual models the buffered-write stall that remains under
	// RC/WC even when the drain models predict none: reads colliding
	// with buffered writes to the same line, expressed as a fraction of
	// the SC write stall.
	rcWriteResidual = 0.06
	// pcWriteResidual is the same residual for PC, whose single
	// outstanding ownership request drains far slower.
	pcWriteResidual = 0.20
	// uncRemoteReadScale corrects the read-locality estimate for the
	// uncached machine: the cached run's miss-locality split over-weights
	// remote lines (local lines hit more), so the uncached remote
	// fraction is scaled down from it.
	uncRemoteReadScale = 0.80
	// uncRemoteWriteScale is the same correction for writes.
	uncRemoteWriteScale = 0.80
	// writeIssueSpacing is the assumed processor cycles between
	// consecutive writes inside a write run (issue + address
	// computation), feeding the buffer-fill burst model.
	writeIssueSpacing = 2.0
)

// Model predicts execution-time breakdowns for one characterized
// application. A Model is immutable and safe for concurrent use.
type Model struct {
	Char *AppChar
}

// New builds a model over a characterization.
func New(char *AppChar) *Model { return &Model{Char: char} }

// Prediction is the twin's output for one configuration: the same
// per-processor cycle breakdown the detailed simulator produces
// (stats.Aggregate over a run), predicted in closed form.
type Prediction struct {
	App string
	Cfg config.Config
	// Time is the predicted mean per-processor cycles per bucket; Total
	// is their sum, i.e. the predicted elapsed time.
	Time  [stats.NumBuckets]float64
	Total float64
	// Anchored reports that the configuration coincides with one of the
	// characterization's reference runs, so the prediction inherits the
	// measured point (near-zero error by construction).
	Anchored bool
	// Iterations is the number of contention fixed-point rounds taken.
	Iterations int
}

// Normalized returns each bucket as a percentage of base cycles,
// matching the paper's normalized execution times.
func (p *Prediction) Normalized(base float64) [stats.NumBuckets]float64 {
	var out [stats.NumBuckets]float64
	if base <= 0 {
		return out
	}
	for i, v := range p.Time {
		out[i] = 100 * v / base
	}
	return out
}

// Predict evaluates the model for one configuration.
func (m *Model) Predict(cfg config.Config) (*Prediction, error) {
	if err := Validate(&cfg); err != nil {
		return nil, err
	}
	var p *Prediction
	if cfg.Contexts == 1 {
		p = m.predictSingle(cfg)
	} else {
		p = m.predictMulti(cfg)
	}
	p.App = m.Char.App
	p.Cfg = cfg
	for _, ref := range m.refConfigs() {
		if cfg == ref {
			p.Anchored = true
			break
		}
	}
	return p, nil
}

func (m *Model) refConfigs() [NumRefs]config.Config {
	refs, _ := ReferenceConfigs(baseOf(m.Char.Points[RefBase].Cfg))
	return refs
}

// opPoint picks the single-context calibration anchor for a config.
func (m *Model) opPoint(cfg *config.Config) *OpPoint {
	if cfg.Prefetch {
		return m.Char.Point(RefPf)
	}
	return m.Char.Point(RefBase)
}

// workScale converts the characterization's per-processor counts to the
// target machine size under the fixed-total-work assumption.
func (m *Model) workScale(cfg *config.Config) float64 {
	return float64(m.Char.Procs) / float64(cfg.Procs)
}

// fixedPointIters bounds the contention iteration; with 0.5 damping the
// elapsed-time estimate converges to well under a cycle in far fewer.
const fixedPointIters = 40

// predictSingle models a single-context configuration. Measured stall
// anchors from the reference point are shifted by the ratio of analytic
// stall estimates at the target and reference operating points, so a
// prediction at the reference configuration reproduces the measurement
// exactly and every delta (latencies, consistency model, caching,
// machine size, contention) enters through a mechanistic term.
func (m *Model) predictSingle(cfg config.Config) *Prediction {
	op := m.opPoint(&cfg)
	w := m.workScale(&cfg)
	s := Compose(&cfg)
	sr := Compose(&op.Cfg)
	qr := m.queues(&op.Cfg, op, 1, op.Elapsed)

	p := &Prediction{}
	busy := op.Time[stats.Busy] * w
	pfo := op.Time[stats.PrefetchOverhead] * w
	if !cfg.CacheShared {
		return m.predictUncached(cfg, op, w, s)
	}

	// Reference-point analytic read/write stall (denominators of the
	// calibration ratios), built from the measured contention-inclusive
	// means so the ratio is exactly 1 at the reference.
	fd := op.DirtyFrac()
	aReadRef := op.ReadSecHit*(sr.ReadSec-1) +
		op.RdLocal*(op.RdLocalMean-1) + op.RdRemote*(op.RdRemoteMean-1)
	aWriteRef := op.WriteHits*(sr.WriteOwned-1) +
		op.WrLocal*(op.WrLocalMeanSafe()-1) + op.WrRemote*(op.WrRemoteMeanSafe()-1)

	// offL/offR absorb everything the composition misses at the
	// reference (buffer waits, port lockout, late-prefetch merges): they
	// are the measured mean minus the composed no-contention latency and
	// modeled queueing there.
	offRL := op.RdLocalMean - (sr.ReadLocal + qr.local)
	offRR := op.RdRemoteMean - ((1-fd)*sr.ReadHome + fd*sr.ReadDirty + qr.remote + fd*qr.dirtyExtra)
	offWL := op.WrLocalMeanSafe() - (sr.WriteLocal + qr.local)
	offWR := op.WrRemoteMeanSafe() - ((1-fd)*sr.WriteHome + fd*sr.WriteDirty + qr.remote + fd*qr.dirtyExtra)

	T := op.Elapsed * w
	for it := 0; it < fixedPointIters; it++ {
		p.Iterations = it + 1
		q := m.queues(&cfg, op, w, T)

		aRead := op.ReadSecHit*(s.ReadSec-1) +
			op.RdLocal*(s.ReadLocal+q.local+offRL-1) +
			op.RdRemote*((1-fd)*s.ReadHome+fd*s.ReadDirty+q.remote+fd*q.dirtyExtra+offRR-1)
		read := op.Time[stats.ReadStall] * w * ratio(aRead, aReadRef)

		// Per-ownership-transaction grant latency at this operating
		// point, for the buffered-model drain estimates.
		wLat := weightedWriteLatency(op, s, q, fd, offWL, offWR)
		var write float64
		switch cfg.Model {
		case config.SC:
			aWrite := op.WriteHits*(s.WriteOwned-1) +
				op.WrLocal*(s.WriteLocal+q.local+offWL-1) +
				op.WrRemote*((1-fd)*s.WriteHome+fd*s.WriteDirty+q.remote+fd*q.dirtyExtra+offWR-1)
			write = op.Time[stats.WriteStall] * w * ratio(aWrite, aWriteRef)
		default:
			write = m.bufferedWriteStall(&cfg, op, w, T, wLat)
		}

		sync := m.syncStall(op, w, busy+pfo+read+write)
		next := busy + pfo + read + write + sync
		p.Time[stats.Busy] = busy
		p.Time[stats.PrefetchOverhead] = pfo
		p.Time[stats.ReadStall] = read
		p.Time[stats.WriteStall] = write
		p.Time[stats.SyncStall] = sync
		if converged(T, next) {
			T = next
			break
		}
		T = 0.5*T + 0.5*next
	}
	p.Total = total(&p.Time)
	return p
}

// predictUncached models the Figure 2 no-cache machine absolutely:
// every shared reference goes to memory, so the per-reference stall is
// the uncached service-time mix plus queueing, with no cached anchor to
// calibrate against. Only the locality mix is borrowed (scaled) from the
// cached reference run's miss profile.
func (m *Model) predictUncached(cfg config.Config, op *OpPoint, w float64, s ServiceTimes) *Prediction {
	p := &Prediction{}
	busy := op.Time[stats.Busy] * w
	frR := clamp01(op.RdRemoteFrac() * uncRemoteReadScale)
	frW := clamp01(op.WrRemoteFrac() * uncRemoteWriteScale)
	readMix := (1-frR)*s.UncReadLocal + frR*s.UncReadRemote
	writeMix := (1-frW)*s.UncWriteLocal + frW*s.UncWriteRemote

	T := op.Elapsed * w / 0.6 // uncached runs are slower; any positive start converges
	for it := 0; it < fixedPointIters; it++ {
		p.Iterations = it + 1
		q := m.queues(&cfg, op, w, T)
		read := op.SharedReads * w * (readMix - 1 + q.local + frR*(q.remote-q.local))
		var write float64
		wLat := writeMix + q.local + frW*(q.remote-q.local)
		if cfg.Model == config.SC {
			write = op.SharedWrites * w * (wLat - 1)
		} else {
			write = m.bufferedWriteStall(&cfg, op, w, T, wLat)
		}
		// Synchronization latencies barely change without caching (sync
		// variables are a handful of contended lines either way), and the
		// uniform uncached latencies reduce the miss-pattern imbalance
		// that drives barrier waits — measured sync time stays close to
		// the cached baseline, so the twin keeps it flat.
		sync := op.Time[stats.SyncStall] * w
		next := busy + read + write + sync
		p.Time[stats.Busy] = busy
		p.Time[stats.ReadStall] = read
		p.Time[stats.WriteStall] = write
		p.Time[stats.SyncStall] = sync
		if converged(T, next) {
			T = next
			break
		}
		T = 0.5*T + 0.5*next
	}
	p.Total = total(&p.Time)
	return p
}

// syncStall stretches the reference synchronization stall by the
// relative change in everything else: sync waits are mostly waits for
// other processors' progress, which the non-sync time tracks.
func (m *Model) syncStall(op *OpPoint, w, nonSync float64) float64 {
	refNonSync := (op.Time[stats.Busy] + op.Time[stats.PrefetchOverhead] +
		op.Time[stats.ReadStall] + op.Time[stats.WriteStall]) * w
	return op.Time[stats.SyncStall] * w * math.Pow(ratio(nonSync, refNonSync), syncStretchExp)
}

// bufferedWriteStall models the write stall of the buffered consistency
// models (PC, WC, RC): the processor never stalls at issue, so all write
// stall is buffer back-pressure.
func (m *Model) bufferedWriteStall(cfg *config.Config, op *OpPoint, w, T, wLat float64) float64 {
	// Effective drain time per buffered write: RC/WC pipeline up to
	// MaxOutstandingWrites ownership requests, PC keeps exactly one
	// outstanding.
	d := wLat
	residual := pcWriteResidual
	if cfg.Model != config.PC {
		d = wLat / float64(cfg.MaxOutstandingWrites)
		residual = rcWriteResidual
	}
	nTxn := (op.WrLocal + op.WrRemote) * w

	// Burst term: within a write run the buffer fills at the issue rate
	// and drains at 1/d; runs longer than the fill horizon stall for the
	// difference. The write-run-length histogram makes this exact over
	// the run distribution rather than assuming the mean.
	var stall float64
	spacing := writeIssueSpacing
	if d > spacing {
		fill := float64(cfg.WriteBufferDepth) * d / (d - spacing)
		for r, cnt := range op.WriteRunHist {
			if cnt == 0 || float64(r) <= fill {
				continue
			}
			stall += cnt * w * (float64(r) - fill) * (d - spacing)
		}
	}

	// Sustained term: if the drain channel cannot keep up with the
	// long-run write rate, the processor is throttled to it.
	if demand := nTxn * d; demand > T {
		stall += demand - T
	}

	// Fence term (WC only): every synchronization access waits for the
	// buffer to empty; the expected backlog is the write rate times the
	// grant latency (Little's law), capped at the buffer depth.
	if cfg.Model == config.WC && T > 0 {
		backlog := math.Min(nTxn*wLat/T, float64(cfg.WriteBufferDepth))
		stall += (op.Locks + op.Barriers) * w * backlog * d
	}

	// Residual: read-after-buffered-write collisions, proportional to
	// how much write traffic the SC machine stalled on.
	stall += residual * op.Time[stats.WriteStall] * w
	return stall
}

// weightedWriteLatency is the mean ownership-grant latency over the
// write-transaction locality mix at the current operating point.
func weightedWriteLatency(op *OpPoint, s ServiceTimes, q queueWaits, fd, offWL, offWR float64) float64 {
	nL, nR := op.WrLocal, op.WrRemote
	if nL+nR == 0 {
		return s.WriteLocal
	}
	lat := nL*(s.WriteLocal+q.local+offWL) +
		nR*((1-fd)*s.WriteHome+fd*s.WriteDirty+q.remote+fd*q.dirtyExtra+offWR)
	return lat / (nL + nR)
}

// queueWaits are the modeled added delays per transaction class.
type queueWaits struct {
	local      float64 // local transaction: bus + memory queueing
	remote     float64 // remote: bus + memory + four NI crossings (+ mesh)
	dirtyExtra float64 // extra for dirty forwarding: two more crossings + owner bus
}

// queues computes per-resource utilizations from the operating point's
// transaction rates at elapsed time T and turns them into M/D/1 waits.
// Nodes are symmetric, so per-node demand equals per-processor demand.
func (m *Model) queues(cfg *config.Config, op *OpPoint, w, T float64) queueWaits {
	if T <= 0 {
		return queueWaits{}
	}
	l := cfg.Lat
	var txn, remote float64
	if cfg.CacheShared {
		txn = (op.DirReads + op.DirWrites) * w / T
		remote = (op.RdRemote + op.WrRemote + op.PfRemote + op.SyncRemote) * w / T
	} else {
		// Every shared reference is a memory transaction.
		frR := clamp01(op.RdRemoteFrac() * uncRemoteReadScale)
		frW := clamp01(op.WrRemoteFrac() * uncRemoteWriteScale)
		reads := op.SharedReads * w / T
		writes := op.SharedWrites * w / T
		txn = reads + writes
		remote = reads*frR + writes*frW
	}
	inval := op.Invals * invalFanoutScale(cfg, op) * w / T
	fwd := op.Forwards * w / T
	wb := op.Writebacks * w / T

	uBus := (txn+wb+fwd)*float64(l.BusHold) + inval*float64(l.InvalApply)
	uMem := (txn + wb) * float64(l.MemHold)
	// Each remote transaction crosses two NIs per direction (request out
	// at the requester + in at the home, and the reverse for the reply).
	uNI := (2*remote + fwd) * float64(l.NIHold)

	wBus := mdl1Wait(uBus, float64(l.BusHold))
	wMem := mdl1Wait(uMem, float64(l.MemHold))
	wNI := mdl1Wait(uNI, float64(l.NIHold))

	var q queueWaits
	q.local = wBus + wMem
	q.remote = wBus + wMem + 4*wNI
	q.dirtyExtra = 2*wNI + wBus
	if cfg.MeshNetwork {
		dist := meshAvgDistance(cfg.Procs)
		width := float64(config.Isqrt(cfg.Procs))
		links := 4 * width * (width - 1)
		if links > 0 {
			// Total hop rate over the machine spread across all
			// directed links; two messages per remote transaction.
			hopRate := float64(cfg.Procs) * remote * 2 * dist / links
			uLink := hopRate * float64(cfg.MeshLinkOccupancy)
			wHop := mdl1Wait(uLink, float64(cfg.MeshLinkOccupancy))
			q.remote += 2 * dist * wHop
			q.dirtyExtra += dist * wHop
		}
	}
	return q
}

// invalFanoutScale converts the measured (full-map, exact) invalidation
// rate into the configured directory organization's expected rate. The
// characterization always runs full-map, so op.Invals counts exactly one
// invalidation per true sharer; imprecise organizations send more. The
// model works from the mean sharers-per-invalidating-write
// s̄ = Invals/DirWrites:
//
//   - full-map: exact, scale 1.
//   - limited-pointer (Dir_i B): treating the sharer count as geometric
//     with mean s̄, the probability a write finds more than i sharers
//     recorded — and therefore broadcasts to all Procs-1 others — is
//     p = (s̄/(1+s̄))^i; expected fan-out (1-p)·s̄ + p·(Procs-1).
//   - coarse-vector (k procs/bit): s̄ sharers scattered uniformly over
//     B = ⌈Procs/k⌉ groups set E[bits] = B·(1-(1-1/B)^s̄) bits, each
//     invalidating a whole k-group, capped at the broadcast ceiling.
//
// DESIGN.md §4e derives the terms alongside the simulator's counters.
func invalFanoutScale(cfg *config.Config, op *OpPoint) float64 {
	if cfg.DirOrg == dirset.FullMap || op.DirWrites <= 0 || op.Invals <= 0 {
		return 1
	}
	sbar := op.Invals / op.DirWrites
	bcast := float64(cfg.Procs - 1)
	var fanout float64
	switch cfg.DirOrg {
	case dirset.LimitedPtr:
		i := cfg.DirPointers
		if i < 1 {
			i = 1
		}
		p := math.Pow(sbar/(1+sbar), float64(i))
		fanout = (1-p)*sbar + p*bcast
	case dirset.CoarseVector:
		k := cfg.DirCoarseness
		if k < 1 {
			k = 1
		}
		groups := float64((cfg.Procs + k - 1) / k)
		bits := groups * (1 - math.Pow(1-1/groups, sbar))
		fanout = math.Min(float64(k)*bits, bcast)
	default:
		return 1
	}
	if fanout < sbar {
		fanout = sbar // imprecision can only add invalidations
	}
	return fanout / sbar
}

// predictMulti models a multiple-context configuration against the
// measured multi-context anchors: the single-context prediction supplies
// the relative stall demand, and the anchor supplies how this
// application actually converts stall demand into idle, switch and
// no-switch time at that context count (including all cache and
// burstiness interactions a utilization model misses).
func (m *Model) predictMulti(cfg config.Config) *Prediction {
	n := cfg.Contexts
	switch {
	case n == 2 || n == 4:
		return m.predictAnchored(cfg, n)
	case n < 2:
		return m.interpolate(cfg, 1, 2)
	case n < 4:
		return m.interpolate(cfg, 2, 4)
	default:
		// Beyond the anchors, extrapolate the 2->4 trend in log2(N).
		return m.interpolate(cfg, 2, 4)
	}
}

// predictAnchored evaluates the multi-context model at a measured anchor
// context count (2 or 4).
func (m *Model) predictAnchored(cfg config.Config, n int) *Prediction {
	var mc *OpPoint
	if cfg.Prefetch {
		mc = m.Char.Point(map[int]RefKind{2: RefMcPf2, 4: RefMcPf4}[n])
	} else {
		mc = m.Char.Point(map[int]RefKind{2: RefMc2, 4: RefMc4}[n])
	}
	ref1 := m.opPoint(&cfg)
	w := m.workScale(&cfg)

	c1 := cfg
	c1.Contexts = 1
	p1 := m.predictSingle(c1)

	// Relative stall demand vs the matching single-context reference.
	stalls1 := p1.Time[stats.ReadStall] + p1.Time[stats.WriteStall] + p1.Time[stats.SyncStall]
	stallRatio := ratio(stalls1, ref1.Stalls()*w)

	// Relative frequency of context-switch triggers: demand misses,
	// blocking writes (SC only) and synchronization operations.
	opsRatio := ratio(switchTriggers(ref1, cfg.Model), switchTriggers(ref1, config.SC))

	penScale := float64(cfg.SwitchPenalty) / float64(mc.Cfg.SwitchPenalty)
	switching := mc.Time[stats.Switching] * w * opsRatio * penScale
	// Extra switch cycles beyond the anchor's penalty partially overlap
	// time the contexts would have idled through anyway.
	extra := mc.Time[stats.Switching] * w * opsRatio * (penScale - 1)

	idle := mc.Time[stats.AllIdle]*w*math.Pow(stallRatio, idleStretchExp) -
		switchOverlap*extra
	if idle < 0 {
		idle = 0
	}

	// Short non-switched stalls: secondary-cache fills always, owned
	// write hits only when SC stalls on them.
	ns := ref1.ReadSecHit
	nsRef := ref1.ReadSecHit + ref1.WriteHits
	if cfg.Model == config.SC {
		ns += ref1.WriteHits
	}
	noSwitch := mc.Time[stats.NoSwitchIdle] * w * ratio(ns, nsRef)

	busy := mc.Time[stats.Busy] * w * ratio(p1.Time[stats.Busy], ref1.Time[stats.Busy]*w)
	pfo := mc.Time[stats.PrefetchOverhead] * w *
		ratio(p1.Time[stats.PrefetchOverhead], ref1.Time[stats.PrefetchOverhead]*w)

	p := &Prediction{Iterations: p1.Iterations}
	p.Time[stats.Busy] = busy
	p.Time[stats.PrefetchOverhead] = pfo
	p.Time[stats.Switching] = switching
	p.Time[stats.NoSwitchIdle] = noSwitch
	p.Time[stats.AllIdle] = idle
	p.Total = total(&p.Time)
	return p
}

// interpolate predicts a non-anchor context count by geometric
// interpolation (or extrapolation) of the bracketing predictions in
// log2(contexts) space, bucket by bucket.
func (m *Model) interpolate(cfg config.Config, lo, hi int) *Prediction {
	cl, ch := cfg, cfg
	cl.Contexts, ch.Contexts = lo, hi
	var pl, ph *Prediction
	if lo == 1 {
		pl = m.predictSingle(cl)
		// A single-context run folds nothing into the idle buckets; map
		// its stall time to all-idle so interpolation blends like with
		// like.
		stall := pl.Time[stats.ReadStall] + pl.Time[stats.WriteStall] + pl.Time[stats.SyncStall]
		pl.Time[stats.ReadStall], pl.Time[stats.WriteStall], pl.Time[stats.SyncStall] = 0, 0, 0
		pl.Time[stats.AllIdle] = stall
	} else {
		pl = m.predictAnchored(cl, lo)
	}
	ph = m.predictAnchored(ch, hi)

	t := (math.Log2(float64(cfg.Contexts)) - math.Log2(float64(lo))) /
		(math.Log2(float64(hi)) - math.Log2(float64(lo)))
	p := &Prediction{Iterations: ph.Iterations}
	for b := range p.Time {
		p.Time[b] = geoBlend(pl.Time[b], ph.Time[b], t)
	}
	// Extrapolation must not predict below the busy floor.
	if p.Time[stats.AllIdle] < 0 {
		p.Time[stats.AllIdle] = 0
	}
	p.Total = total(&p.Time)
	return p
}

// switchTriggers counts the per-processor operations that block a
// context long enough to switch under the given consistency model.
func switchTriggers(op *OpPoint, model config.Consistency) float64 {
	n := op.RdLocal + op.RdRemote + op.Locks + op.Barriers
	if model == config.SC {
		n += op.WrLocal + op.WrRemote
	}
	return n
}

// WrLocalMeanSafe / WrRemoteMeanSafe return the measured mean write
// latencies, falling back to a harmless default when the class never
// occurred (applications with a 100% write hit rate).
func (p *OpPoint) WrLocalMeanSafe() float64 {
	if p.WrLocal > 0 {
		return p.WrLocalMean
	}
	return 18
}

func (p *OpPoint) WrRemoteMeanSafe() float64 {
	if p.WrRemote > 0 {
		return p.WrRemoteMean
	}
	return 64
}

// ratio returns a/b guarded against a zero denominator (neutral 1).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 1
	}
	return a / b
}

// geoBlend interpolates geometrically between a and b with weight t,
// degrading to linear when either endpoint is non-positive.
func geoBlend(a, b, t float64) float64 {
	if a > 0 && b > 0 {
		return math.Exp((1-t)*math.Log(a) + t*math.Log(b))
	}
	return (1-t)*a + t*b
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func total(t *[stats.NumBuckets]float64) float64 {
	var sum float64
	for _, v := range t {
		sum += v
	}
	return sum
}

// converged reports the fixed point moved less than a tenth cycle.
func converged(prev, next float64) bool {
	return math.Abs(next-prev) < 0.1
}
