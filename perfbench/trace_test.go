package main

import (
	"testing"
	"time"
)

func TestTracerAcrossChunks(t *testing.T) {
	tr := newTracer(true)
	for i := range spanChunk + 2 {
		tr.mu.Lock()
		tr.push(uint64(i), -1, "a", time.Duration(i), time.Duration(i)+5)
		tr.mu.Unlock()
	}
	open := tr.begin(7, "b") // the first span of the second chunk after two
	tr.end(open)
	if got, want := tr.count(), spanChunk+3; got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
	iv := tr.intervals("a", spanChunk-1, spanChunk+2)
	if len(iv) != 3 || iv[2] != (interval{spanChunk + 1, spanChunk + 6}) {
		t.Fatalf("intervals across the chunk boundary = %v", iv)
	}
	b := tr.intervals("b", 0, time.Hour)
	if len(b) != 1 || b[0].end < b[0].start {
		t.Fatalf("begin/end across chunks: %v", b)
	}
	if tr.intervals("missing", 0, time.Hour) != nil {
		t.Fatal("an unknown name has spans")
	}
	off := newTracer(false)
	off.add(1, -1, "a", 0)
	if off.begin(1, "a") != -1 || off.count() != 0 {
		t.Fatal("a disabled tracer recorded")
	}
}
