package sim

import (
	"context"
	"fmt"
)

// Batch describes one contiguous slab of trials handed to a RunBatch
// function. Index — never the worker id — is the batch's identity for the
// determinism contract: the batch function derives its randomness as
// root.SplitN("batch", b.Index), so results are byte-identical for every
// worker count.
type Batch struct {
	// Index is the batch number in [0, ceil(n/size)).
	Index int
	// Start is the global index of the batch's first trial.
	Start int
	// Len is the number of trials in the batch: size for every batch
	// except possibly the last.
	Len int
}

// RunBatch executes trials 0..n-1 in contiguous batches of size trials
// (the last batch may be shorter) on a pool of workers, returning per-trial
// results in trial order. It runs on Run's pool with a coarser work unit, for the
// bit-packed engine in internal/batch where one call decodes up to 64 lanes:
// the batch function returns exactly b.Len results, which land at
// results[b.Start:]. Progress reporters attached with WithProgress receive
// one TrialDone(b.Len) per completed batch, suppressed once the pool is
// cancelled; the determinism, cancellation, and first-error semantics are
// those of Run.
func RunBatch[T any](ctx context.Context, n, size, workers int, batch func(b Batch, w *Worker) ([]T, error)) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("sim: negative trial count %d", n)
	}
	if size <= 0 {
		return nil, fmt.Errorf("sim: non-positive batch size %d", size)
	}
	results := make([]T, n)
	if err := pool(ctx, (n+size-1)/size, workers, func(bi int, w *Worker) (int, error) {
		b := Batch{Index: bi, Start: bi * size, Len: min(size, n-bi*size)}
		vs, err := batch(b, w)
		if err != nil {
			return 0, err
		}
		if len(vs) != b.Len {
			return 0, fmt.Errorf("sim: batch %d returned %d results, want %d", b.Index, len(vs), b.Len)
		}
		copy(results[b.Start:], vs)
		return b.Len, nil
	}); err != nil {
		return nil, err
	}
	return results, nil
}
