package matrix

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// TestMergeCOOCancelledIsRetryable: a cancelled merge returns the
// context's error and leaves the shards retryable — a second merge on
// a live context produces the full result.
func TestMergeCOOCancelledIsRetryable(t *testing.T) {
	mkShard := func(vals ...int) *COO {
		c := NewCOO(4, 4)
		for i, v := range vals {
			c.Add(i%4, (i+1)%4, v)
		}
		return c
	}
	a, b := mkShard(1, 2, 3), mkShard(10, 20)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MergeCOOArena(ctx, nil, a, b); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled merge: err = %v, want context.Canceled", err)
	}

	merged, err := MergeCOOArena(context.Background(), nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	want, err := MergeCOOArena(context.Background(), nil, mkShard(1, 2, 3), mkShard(10, 20))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged.Entries(), want.Entries()) {
		t.Error("retry after cancellation lost shard data")
	}
}
