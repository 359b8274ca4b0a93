package sim

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// batchTrialValue derives a deterministic per-trial value so result placement
// can be asserted exactly.
func batchTrialValue(i int) int { return i*i + 7 }

// TestRunBatchOrderAndDeterminism checks results land at their global trial
// indices and are identical for every worker count, including sizes that
// leave a short tail batch.
func TestRunBatchOrderAndDeterminism(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 200} {
		var want []int
		for i := 0; i < n; i++ {
			want = append(want, batchTrialValue(i))
		}
		for _, workers := range []int{1, 3, 16} {
			got, err := RunBatch(context.Background(), n, 64, workers,
				func(b Batch, _ *Worker) ([]int, error) {
					out := make([]int, b.Len)
					for k := range out {
						out[k] = batchTrialValue(b.Start + k)
					}
					return out, nil
				})
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			if len(got) != n {
				t.Fatalf("n=%d workers=%d: %d results", n, workers, len(got))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d workers=%d: result[%d] = %d, want %d", n, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestRunBatchShapes pins the Batch slab geometry handed to the batch
// function.
func TestRunBatchShapes(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]Batch{}
	_, err := RunBatch(context.Background(), 150, 64, 4, func(b Batch, _ *Worker) ([]struct{}, error) {
		mu.Lock()
		seen[b.Index] = b
		mu.Unlock()
		return make([]struct{}, b.Len), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []Batch{{0, 0, 64}, {1, 64, 64}, {2, 128, 22}}
	if len(seen) != len(want) {
		t.Fatalf("saw %d batches, want %d", len(seen), len(want))
	}
	for _, w := range want {
		if seen[w.Index] != w {
			t.Errorf("batch %d = %+v, want %+v", w.Index, seen[w.Index], w)
		}
	}
}

// TestRunBatchValidation covers the argument and result-length contracts.
func TestRunBatchValidation(t *testing.T) {
	if _, err := RunBatch(context.Background(), -1, 64, 1, func(Batch, *Worker) ([]int, error) { return nil, nil }); err == nil {
		t.Error("negative trial count accepted")
	}
	if _, err := RunBatch(context.Background(), 10, 0, 1, func(Batch, *Worker) ([]int, error) { return nil, nil }); err == nil {
		t.Error("zero batch size accepted")
	}
	for _, workers := range []int{1, 4} {
		_, err := RunBatch(context.Background(), 100, 64, workers, func(b Batch, _ *Worker) ([]int, error) {
			return make([]int, b.Len-1), nil
		})
		if err == nil || !strings.Contains(err.Error(), "results") {
			t.Errorf("workers=%d: short result slice not rejected: %v", workers, err)
		}
	}
}

// TestRunBatchFirstError checks the lowest-indexed failing batch wins, as in
// Run.
func TestRunBatchFirstError(t *testing.T) {
	wantErr := errors.New("boom")
	for _, workers := range []int{1, 4} {
		_, err := RunBatch(context.Background(), 64*6, 64, workers, func(b Batch, _ *Worker) ([]int, error) {
			if b.Index >= 2 {
				return nil, fmt.Errorf("batch %d: %w", b.Index, wantErr)
			}
			return make([]int, b.Len), nil
		})
		if !errors.Is(err, wantErr) {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
	}
}

// TestRunBatchProgress checks one TrialDone per batch carrying the slab
// length, summing to n.
func TestRunBatchProgress(t *testing.T) {
	for _, workers := range []int{1, 3} {
		p := &countingProgress{}
		ctx := WithProgress(context.Background(), p)
		const n = 150
		if _, err := RunBatch(ctx, n, 64, workers, func(b Batch, _ *Worker) ([]int, error) {
			return make([]int, b.Len), nil
		}); err != nil {
			t.Fatal(err)
		}
		if got := p.total.Load(); got != n {
			t.Fatalf("workers=%d: reported %d trials, want %d", workers, got, n)
		}
		if got := p.calls.Load(); got != 3 {
			t.Fatalf("workers=%d: %d TrialDone calls, want 3", workers, got)
		}
	}
}

// TestRunSuppressesProgressAfterCancel is the regression test for the
// progress over-count: a unit that completes after the pool's context was
// cancelled has its result discarded on the error return, so it must not be
// reported to the progress sink either. It covers both entry points, serial
// and parallel. Unit 0 cancels the pool and only then opens the gate every
// other unit waits on, so the test is deterministic under -race.
func TestRunSuppressesProgressAfterCancel(t *testing.T) {
	for _, tc := range []struct {
		name    string
		batch   bool
		workers int
	}{
		{"serial", false, 1},
		{"parallel", false, 2},
		{"batch", true, 1},
		{"batch_parallel", true, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			gate := make(chan struct{})
			unit := func(u int) {
				if u == 0 {
					cancel()
					close(gate)
					return
				}
				<-gate
			}
			p := &countingProgress{}
			ctx = WithProgress(ctx, p)
			var err error
			if tc.batch {
				_, err = RunBatch(ctx, 8*64, 64, tc.workers, func(b Batch, _ *Worker) ([]int, error) {
					unit(b.Index)
					return make([]int, b.Len), nil
				})
			} else {
				_, err = Run(ctx, 8, tc.workers, func(i int, _ *Worker) (int, error) {
					unit(i)
					return i, nil
				})
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if got := p.total.Load(); got != 0 {
				t.Fatalf("post-cancel units reported %d trials, want 0", got)
			}
		})
	}
}
