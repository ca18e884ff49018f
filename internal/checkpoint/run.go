package checkpoint

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/feed"
	"repro/internal/stream"
)

// RunConfig is what one process life of a checkpointing driver needs
// to restore, batch and checkpoint its pipeline.
type RunConfig struct {
	// System is the pipeline the run restores into and checkpoints.
	System *core.System
	// Checkpoints is the checkpoint directory; nil runs without
	// checkpointing (and always cold).
	Checkpoints *Manager
	// PinSeq, when nonzero, restores exactly that checkpoint sequence
	// instead of the newest valid one, and fails if it does not load.
	PinSeq uint64
	// Every is the checkpoint cadence in slides (≤ 0: only the final
	// checkpoint). It is grid-absolute: a slide is checkpointed when
	// (Query / Slide) mod Every == 0, so every process on the same slide
	// grid — each cluster worker, or a restarted driver — cuts at the
	// same query times.
	Every int
	// Slide is the window slide β.
	Slide time.Duration
	// GridStart pins a cold start's slide grid origin (zero: the first
	// fix). A restored run always continues the checkpoint's grid.
	GridStart time.Time
	// Logf receives lifecycle messages; nil silences them.
	Logf func(format string, args ...any)
}

// Run is one process life of the restore → replay → checkpoint
// lifecycle shared by cmd/serve, maritime recognize and the cluster worker:
// Restore puts the newest (or pinned) checkpoint into the system,
// Ingest builds the batcher on the restored grid and the ingest stage,
// and Slides drives the slide loop — noting every processed fix in the
// resume cursor, checkpointing on the cadence and once at the end.
//
// The same restore → replay is the pipeline's one recovery path. Once
// a checkpoint exists and the ingest can be replayed, the run arms the
// system's RewindOnFault: a slide on which a target faults comes back
// with Rewind set, and Slides restores the newest checkpoint — the
// system, and through Loop.Restore whatever the driver captured beside
// it — rewinds the ingest to its cursor and replays from there.
type Run struct {
	cfg      RunConfig
	restored *State
	cur      feed.Cursor
	slides   int // including the restored checkpoint's

	stage  *stream.IngestStage
	client *feed.ReconnectingClient
	src    stream.FixSource // the static source, when not a live client
	resume *feed.ResumeFilter
	// skipped counts the fixes earlier resume filters discarded.
	skipped int
	// armed is set once the system rewinds on faults.
	armed bool

	// gapFrom is the query of the checkpoint last restored until the
	// first replayed traffic measures the replay gap after it.
	gapFrom   time.Time
	replayGap atomic.Int64
}

// Restore starts a run: with checkpointing on it registers the
// replay-gap health source, loads the pinned checkpoint, or the newest
// valid one (invalid files are logged and skipped; none at all is a
// cold start), and restores it into the system. Call it before anything
// reads the system.
func Restore(cfg RunConfig) (*Run, error) {
	r := &Run{cfg: cfg}
	mgr := cfg.Checkpoints
	if mgr == nil {
		return r, nil
	}
	// A checkpoint older than the feed's replayable horizon resumes with
	// a partial replay; the gap is surfaced through Health, not silently
	// closed. Atomic because /healthz and /metrics scrape concurrently.
	cfg.System.AddHealthSource(func() core.Health {
		return core.Health{ReplayGapSlides: int(r.replayGap.Load())}
	})
	var st *State
	var err error
	if cfg.PinSeq != 0 {
		if st, err = mgr.LoadAt(cfg.PinSeq); err != nil {
			return nil, fmt.Errorf("checkpoint: pinned restore: %w", err)
		}
	} else if st, err = mgr.RestoreNewest(); err != nil {
		r.logf("checkpoint: skipped invalid files: %v", err)
	}
	if st == nil {
		return r, nil
	}
	if err := cfg.System.RestoreSnapshot(st.System); err != nil {
		return nil, fmt.Errorf("checkpoint: restore: %w", err)
	}
	r.restored = st
	r.cur = st.Cursor.Clone()
	r.slides = st.Slides
	r.gapFrom = st.Query
	r.logf("restored checkpoint: %d slides, query %s", st.Slides, st.Query.Format(time.RFC3339))
	return r, nil
}

// Restored returns the restored checkpoint (nil on a cold start).
func (r *Run) Restored() *State { return r.restored }

// Cursor returns a copy of the resume cursor: the restored one before
// the loop runs (dial the feed with it), the processed one after.
func (r *Run) Cursor() feed.Cursor { return r.cur.Clone() }

// Ingest builds the ingest path over src: the batcher on the restored
// checkpoint's grid (or GridStart, or the first fix), the ingest stage
// with the given backlog capacity (0: lossless), and the health source
// of a live client. client is src when the source is a live feed —
// dialled or seeded with Cursor — and nil otherwise; a restored run
// reading no client replays from the beginning through a ResumeFilter
// that discards what the cursor covers. A live client is rewound by
// reconnecting at a checkpoint's cursor; a static source only if it can
// start over (a Reset method, as stream.SliceSource has). Call it before
// anything scrapes Health, then Slides.
func (r *Run) Ingest(src stream.FixSource, client *feed.ReconnectingClient, capacity int) *stream.IngestStage {
	r.client = client
	if client == nil {
		r.src = src
	}
	r.stage = stream.NewIngestStage(r.batcher(r.restored), capacity)
	if client != nil {
		r.cfg.System.AddHealthSource(core.LiveHealthSource(client, r.stage))
	}
	if r.restored != nil {
		r.arm()
	}
	return r.stage
}

// Pending is the ingest stage's backlog in fixes, the depth the
// overload ladder reads (core.DegradeSpec.DepthFunc). Call it after
// Ingest.
func (r *Run) Pending() int { return r.stage.Pending() }

// batcher builds the batcher over the ingest source as of the
// checkpoint st (nil: the start of the stream): a static source read
// through a ResumeFilter that discards what st's cursor covers, on st's
// slide grid.
func (r *Run) batcher(st *State) *stream.Batcher {
	src := r.src
	if src == nil {
		src = r.client
	} else if st != nil {
		r.resume = feed.NewResumeFilter(src, st.Cursor)
		src = r.resume
	}
	switch {
	case st != nil:
		// Continue on the original slide grid: slides between the
		// checkpoint and the first replayed fix still run (empty), so gap
		// detection behaves as in the uninterrupted run.
		return stream.NewBatcherFrom(src, r.cfg.Slide, st.Query)
	case !r.cfg.GridStart.IsZero():
		return stream.NewBatcherFrom(src, r.cfg.Slide, r.cfg.GridStart)
	default:
		return stream.NewBatcher(src, r.cfg.Slide)
	}
}

// rewindable is a static source that can start over.
type rewindable interface{ Reset() }

// arm makes the system rewind on faults, once there is a checkpoint to
// rewind to and an ingest that can be rewound.
func (r *Run) arm() {
	if r.armed || r.cfg.Checkpoints == nil {
		return
	}
	if _, ok := r.src.(rewindable); ok || r.client != nil {
		r.cfg.System.RewindOnFault()
		r.armed = true
	}
}

// Pipeline is what the slide loop drives: core.System, or a serving
// tier that wraps each step in its own lock.
type Pipeline interface {
	// Track runs trajectory detection over one slide.
	Track(stream.Batch)
	// ProcessTracked runs the tracked slide through the rest of the
	// pipeline, starting the slide ahead returns, if any, beside it.
	ProcessTracked(ahead func() (stream.Batch, bool)) core.SlideReport
}

// Loop is what differs between the drivers' slide loops.
type Loop struct {
	// Pipeline runs the slides; nil runs them on RunConfig.System.
	Pipeline Pipeline
	// Report, when set, receives every processed slide's report before
	// the slide's fixes are noted in the cursor — once: not a slide
	// withheld for a rewind, nor one replayed after it that was reported
	// before; an error aborts the run at once, with no final checkpoint.
	Report func(b stream.Batch, rep core.SlideReport) error
	// Capture fills st.System (and st.Hub) with the pipeline's state as
	// of st.Query; the loop has set Query, Cursor and Slides. Nil
	// snapshots System. The gateway captures under Quiesce, together with
	// its hub.
	Capture func(st *State) error
	// Restore is Capture's inverse, for a rewind after a fault: it puts
	// st.System (and st.Hub) back into the pipeline. Nil restores System.
	// The gateway restores under Quiesce, together with its hub.
	Restore func(st *State) error
	// Committed, when set, runs after each reported slide's cadence
	// checkpoint with the sequence it was saved under (0: none this
	// slide); an error aborts like Report's. The cluster worker ships the
	// slide upstream here.
	Committed func(b stream.Batch, seq uint64) error
	// NoFinalCheckpoint skips the checkpoint at the end. The cluster
	// worker sets it: its coordinator binds manifests only to cadence
	// checkpoints, and a cancelled worker must look killed — resuming
	// from its last cadence checkpoint and re-sending the slides since.
	NoFinalCheckpoint bool
}

// Result is how one run's slide loop ended.
type Result struct {
	// Slides is how many slides this process life ran, each counted once
	// however often a rewind replayed it; Total adds the restored
	// checkpoint's.
	Slides, Total int
	// Last is the query time of the last slide (zero: none ran).
	Last time.Time
	// Interrupted reports that ctx was cancelled: the slides read ahead
	// were discarded, and the driver should skip Drain so trips stay
	// replayable.
	Interrupted bool
}

// Slides drives the slide loop until the source ends or ctx is
// cancelled. Each slide k is tracked, and the next slide, if the ingest
// stage already holds it as slide k's shards are collected or once they
// are, is rolled in on the tracker's shard pool and tracked while k is
// processed (core.System.ProcessTracked). A slide
// that waits for the feed is tracked when it arrives, as before: the
// loop never parks a goroutine to wait for one. Nothing is tracked past
// a slide that will be checkpointed, so every checkpoint sees tracker
// and recognizer on the same slide, and a slide's fixes go into the
// resume cursor only once it is processed.
//
// A cancelled ctx closes the live client and discards the slides read
// ahead but not yet tracked — the newest may have been truncated by the
// closing source — so the final checkpoint sits on a complete-slide
// boundary and the cursor replays them whole. A slide already tracked
// ahead was complete when taken and is processed first. The final checkpoint
// (unless already taken at the last slide) precedes the driver's
// Drain: drained trips are final, and a resumed run must not
// re-finalize them. Slides closes the client, then the stage, and
// returns the source's error, if any, after that checkpoint.
//
// A slide that comes back with Rewind set is not reported; the run
// rewinds to the newest checkpoint (see Run) and goes on from there,
// reporting the replayed slides only once they pass the faulted one.
func (r *Run) Slides(ctx context.Context, l Loop) (Result, error) {
	mgr := r.cfg.Checkpoints
	stop := make(chan struct{})
	defer close(stop)
	if r.client != nil {
		go func() {
			select {
			case <-ctx.Done():
				r.client.Close()
			case <-stop:
			}
		}()
	}
	closeIngest := func() {
		// The stage's goroutine may be inside client.Scan: close the
		// client first, then wait for it.
		if r.client != nil {
			r.client.Close()
		}
		r.stage.Close()
	}

	pipe := l.Pipeline
	if pipe == nil {
		pipe = r.cfg.System
	}
	var res Result
	var savedLast bool
	var b, next stream.Batch
	var ahead bool // b was tracked ahead, beside the slide before it
	lookAhead := func() (stream.Batch, bool) {
		if r.due(b.Query) || ctx.Err() != nil {
			return stream.Batch{}, false
		}
		nb, ok := r.stage.TryNext()
		// A slide handed over after cancellation may be truncated.
		if !ok || ctx.Err() != nil {
			return stream.Batch{}, false
		}
		next, ahead = nb, true
		return nb, true
	}
	for {
		if ahead {
			b, ahead = next, false
		} else {
			var ok bool
			if b, ok = r.stage.Next(); !ok || ctx.Err() != nil {
				break
			}
			pipe.Track(b)
		}
		rep := pipe.ProcessTracked(lookAhead)
		if rep.Rewind {
			ahead = false
			back, err := r.rewind(l, rep)
			if err != nil {
				closeIngest()
				return res, err
			}
			res.Slides -= back
			continue
		}
		if l.Report != nil && !rep.Replay {
			if err := l.Report(b, rep); err != nil {
				closeIngest()
				return res, err
			}
		}
		r.cur.NoteAll(b.Fixes)
		res.Slides++
		r.slides++
		res.Last = b.Query
		if !r.gapFrom.IsZero() && len(b.Fixes) > 0 {
			r.replayGap.Add(int64(ReplayGapSlides(r.gapFrom, b.Query, r.cfg.Slide)))
			r.gapFrom = time.Time{}
		}
		savedLast = r.due(b.Query) && r.save(l, b.Query)
		var seq uint64
		if savedLast {
			seq = mgr.LastSeq()
			r.arm()
		}
		if l.Committed != nil && !rep.Replay {
			if err := l.Committed(b, seq); err != nil {
				closeIngest()
				return res, err
			}
		}
		r.stage.Recycle(b)
	}
	res.Interrupted = ctx.Err() != nil
	res.Total = r.slides
	closeIngest()
	if mgr != nil && !l.NoFinalCheckpoint && !res.Last.IsZero() && !savedLast {
		r.save(l, res.Last)
	}
	if mgr != nil {
		skipped := r.skipped
		if r.resume != nil {
			skipped += r.resume.Skipped()
		} else if r.client != nil {
			skipped = r.client.NetStats().ResumeSkipped
		}
		mgr.NoteReplaySkipped(skipped)
		if r.restored != nil {
			r.logf("resumed: replay discarded %d already-processed fixes", skipped)
		}
	}
	return res, r.stage.Err()
}

// rewind recovers from the faults rep reports: it restores the newest
// checkpoint into the pipeline and rewinds the ingest to its cursor,
// discarding the slides read ahead. It returns how many slides it went
// back. A failure to restore ends the run.
func (r *Run) rewind(l Loop, rep core.SlideReport) (int, error) {
	st, err := r.cfg.Checkpoints.RestoreNewest()
	if st == nil {
		return 0, fmt.Errorf("checkpoint: rewinding after %v: no checkpoint restores (%v)", rep.Faults, err)
	}
	if l.Restore != nil {
		err = l.Restore(st)
	} else {
		err = r.cfg.System.RestoreSnapshot(st.System)
	}
	if err != nil {
		return 0, fmt.Errorf("checkpoint: rewinding after %v: %w", rep.Faults, err)
	}
	r.logf("rewound to checkpoint at %s after %v", st.Query.Format(time.RFC3339), rep.Faults)
	// The stage's goroutine may be inside client.Scan: interrupt the
	// client first, then wait for it.
	if r.client != nil {
		r.client.Interrupt()
	}
	r.stage.Close()
	if r.client != nil {
		r.client.SeedCursor(st.Cursor)
	} else {
		if r.resume != nil {
			r.skipped += r.resume.Skipped()
		}
		r.src.(rewindable).Reset()
	}
	r.stage.Reopen(r.batcher(st))
	back := r.slides - st.Slides
	r.cur = st.Cursor.Clone()
	r.slides = st.Slides
	r.gapFrom = st.Query
	return back, nil
}

// due applies the grid-absolute cadence to the slide at q.
func (r *Run) due(q time.Time) bool {
	return r.cfg.Checkpoints != nil && r.cfg.Every > 0 && r.cfg.Slide > 0 &&
		(q.UnixNano()/int64(r.cfg.Slide))%int64(r.cfg.Every) == 0
}

// save checkpoints the pipeline as of q; a failure is logged and the
// previous checkpoint survives.
func (r *Run) save(l Loop, q time.Time) bool {
	st := &State{Query: q, Cursor: r.cur.Clone(), Slides: r.slides}
	var err error
	if l.Capture != nil {
		err = l.Capture(st)
	} else {
		st.System, err = r.cfg.System.Snapshot()
	}
	if err == nil {
		err = r.cfg.Checkpoints.Save(st)
	}
	if err != nil {
		r.logf("checkpoint at %s: %v", q.Format(time.RFC3339), err)
		return false
	}
	return true
}

func (r *Run) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}
