// Package sim is the deterministic parallel trial engine behind every Monte
// Carlo loop in the repository: the Fig. 6/7 network cells, the Fig. 8
// decoder threshold study, the ablation sweeps, and the benchmarks.
//
// The determinism contract is the whole point of the package: a trial's
// randomness must derive from the root seed and the trial index — never from
// worker identity, scheduling order, or time — so that Run returns
// byte-identical results for every worker count, including 1. Run enforces
// the half it can enforce: results are collected into a slice indexed by
// trial, so the caller's reduction always folds them in trial order no
// matter which worker finished first. The caller keeps the other half by
// deriving each trial's *rng.Source inside the trial function from the
// trial index (rng.Source.SplitN("trial", i) on a root stream).
//
// Workers exist to amortize allocation, not to carry state that matters:
// each goroutine owns a Worker whose scratch arena holds reusable buffers
// (decoder scratch, sampled frames, syndrome slices) so hot loops stop
// allocating per trial. Anything stored in a Worker must be recomputed from
// the trial's inputs before use — it is a cache, never an input.
package sim

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Worker is the per-goroutine context handed to every trial. It is owned by
// exactly one goroutine for the duration of a Run, so its scratch values
// need no locking.
type Worker struct {
	id      int
	scratch map[string]any
}

// ID reports the worker's index in [0, workers). It identifies the scratch
// arena only; deriving randomness from it breaks the determinism contract.
func (w *Worker) ID() int { return w.id }

// Value returns the worker-local value stored under key, creating it with
// init on first use. Values live for the whole Run and are reused across all
// trials this worker executes.
func (w *Worker) Value(key string, init func() any) any {
	if v, ok := w.scratch[key]; ok {
		return v
	}
	if w.scratch == nil {
		w.scratch = make(map[string]any)
	}
	v := init()
	w.scratch[key] = v
	return v
}

// Scratch returns the worker-local value of type S under key, creating it
// with init on first use. It is the typed convenience wrapper over
// Worker.Value for per-worker arenas (decoder scratch, sample buffers).
func Scratch[S any](w *Worker, key string, init func() S) S {
	return w.Value(key, func() any { return init() }).(S)
}

// Normalize maps a non-positive worker count to runtime.GOMAXPROCS(0), the
// default of every -workers flag.
func Normalize(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// Progress receives live trial-completion counts from Run. Implementations
// must be safe for concurrent use: the pool's workers all report into the
// same reporter. Progress is observation only — it sees completion counts,
// never results, so it cannot perturb the determinism contract.
type Progress interface {
	TrialDone(n int)
}

type progressKey struct{}

// WithProgress attaches a progress reporter to the context; every Run under
// that context reports trial completions into it. A nil reporter detaches.
func WithProgress(ctx context.Context, p Progress) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, progressKey{}, p)
}

// progressFrom extracts the reporter attached by WithProgress, or nil.
func progressFrom(ctx context.Context) Progress {
	if ctx == nil {
		return nil
	}
	p, _ := ctx.Value(progressKey{}).(Progress)
	return p
}

// Run executes trials 0..n-1 on a pool of workers and returns their results
// in trial order. workers <= 0 selects runtime.GOMAXPROCS(0); the pool never
// exceeds n. The results are identical for every worker count provided the
// trial function honors the package determinism contract.
//
// On failure Run cancels the pool's context, waits for in-flight trials to
// drain, and returns the error of the lowest-indexed failed trial it
// observed (with one worker this is exactly the serial first error). The
// caller's ctx cancels the run the same way.
func Run[T any](ctx context.Context, n, workers int, trial func(i int, w *Worker) (T, error)) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("sim: negative trial count %d", n)
	}
	results := make([]T, n)
	if err := pool(ctx, n, workers, func(i int, w *Worker) (int, error) {
		v, err := trial(i, w)
		if err != nil {
			return 0, err
		}
		results[i] = v
		return 1, nil
	}); err != nil {
		return nil, err
	}
	return results, nil
}

// pool is the one goroutine pool behind Run and RunBatch. It executes work
// units 0..units-1 on at most workers goroutines (serially in the caller when
// that is one), each goroutine owning one Worker. unit reports how many
// trials it completed; that weight goes to the context's Progress reporter.
//
// On a unit's error the pool cancels, drains in-flight units, and returns the
// error of the lowest-indexed failed unit it observed; the caller's ctx
// cancels the pool the same way. A unit that completes after cancellation is
// not reported to Progress: its result is discarded on the error return, and
// counting it would let /status trial counts exceed the kept-trial count.
func pool(ctx context.Context, units, workers int, unit func(u int, w *Worker) (int, error)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	workers = Normalize(workers)
	if workers > units {
		workers = units
	}
	if units == 0 {
		return ctx.Err()
	}
	progress := progressFrom(ctx)

	if workers == 1 {
		w := &Worker{id: 0}
		for u := 0; u < units; u++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			done, err := unit(u, w)
			if err != nil {
				return err
			}
			if progress != nil && ctx.Err() == nil {
				progress.TrialDone(done)
			}
		}
		return nil
	}

	// The goroutines capture pctx, assigned once, so the caller's ctx is
	// never boxed on the heap and the serial path stays allocation-lean.
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		firstIdx = units
	)
	fail := func(u int, err error) {
		mu.Lock()
		if u < firstIdx {
			firstIdx, firstErr = u, err
		}
		mu.Unlock()
		cancel()
	}
	for id := 0; id < workers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			w := &Worker{id: id}
			for {
				u := int(next.Add(1)) - 1
				if u >= units || pctx.Err() != nil {
					return
				}
				done, err := unit(u, w)
				if err != nil {
					fail(u, err)
					return
				}
				if progress != nil && pctx.Err() == nil {
					progress.TrialDone(done)
				}
			}
		}(id)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return pctx.Err()
}
