package kafka

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// readCheckpoint parses the hw.checkpoint file in dir, failing the test if it
// is missing or unparseable.
func readCheckpoint(t testing.TB, dir string) int64 {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, hwCheckpointName))
	if err != nil {
		t.Fatal(err)
	}
	hw, err := strconv.ParseInt(strings.TrimSpace(string(data)), 10, 64)
	if err != nil {
		t.Fatalf("checkpoint %q: %v", data, err)
	}
	return hw
}

// restoredLimit opens a second Log on dir, as a broker restarting after a
// kill -9 would, and returns the limit it recovered.
func restoredLimit(t testing.TB, dir string) int64 {
	t.Helper()
	re, err := OpenLog(dir, LogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	re.mu.Lock()
	defer re.mu.Unlock()
	return re.limit
}

// SetLimit has the value on disk when it returns: a second OpenLog, with the
// first Log never closed (the kill -9 model), restores it.
func TestCheckpointSurvivesKillWithoutClose(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, LogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close() // only after every restore below has run
	for _, hw := range []int64{7, 4096, 4097} {
		l.SetLimit(hw)
		if got := restoredLimit(t, dir); got != hw {
			t.Fatalf("restored limit after SetLimit(%d) = %d", hw, got)
		}
	}
}

// Lowering the limit overwrites the whole record: no digits of the higher
// value survive past the end of the lower one.
func TestCheckpointLoweredReadsBackExactly(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, LogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.SetLimit(100000)
	l.SetLimit(99)
	if got := readCheckpoint(t, dir); got != 99 {
		t.Fatalf("checkpoint after lowering 100000 -> 99 reads %d", got)
	}
	if got := restoredLimit(t, dir); got != 99 {
		t.Fatalf("restored limit = %d, want 99", got)
	}
}

// A checkpoint written by the earlier create-write-rename code (unpadded, no
// newline) still restores, and the first advance after restart replaces it.
func TestCheckpointUnpaddedFormatRestores(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, hwCheckpointName), []byte("12345"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := restoredLimit(t, dir); got != 12345 {
		t.Fatalf("restored limit from unpadded checkpoint = %d, want 12345", got)
	}
	l, err := OpenLog(dir, LogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.SetLimit(7)
	if got := readCheckpoint(t, dir); got != 7 {
		t.Fatalf("checkpoint after SetLimit(7) over an unpadded record reads %d", got)
	}
}

// A temp file left by a crash inside the earlier write-then-rename is removed
// on open, and does not stand in for the checkpoint.
func TestCheckpointLeftoverTempRemoved(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, hwCheckpointName+".tmp")
	if err := os.WriteFile(tmp, []byte("999"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := OpenLog(dir, LogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("leftover %s survived OpenLog (stat err = %v)", tmp, err)
	}
	if got := l.Latest(); got != 0 {
		t.Fatalf("Latest = %d, want 0 (the temp file is not a checkpoint)", got)
	}
}

// The ack-time invariant: when a produce is acked, the leader's on-disk
// checkpoint already covers it, so a whole-cluster kill -9 right after the ack
// leaves every broker a watermark at or past the acked message.
func TestCheckpointCoversEveryAckedProduce(t *testing.T) {
	c := newTestCluster(t, 3, ReplicatedConfig{
		Cluster: "ckpt", Replicas: 3, MinISR: 2,
		FetchWait: 20 * time.Millisecond, AckTimeout: 5 * time.Second,
	})
	if err := c.AddTopic("acks"); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForISR("acks", 3, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	leader, err := c.LeaderOf("acks", 0)
	if err != nil {
		t.Fatal(err)
	}
	rb := c.Broker(leader)
	l, err := rb.Broker().log("acks", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		set := NewMessageSet([]byte(fmt.Sprintf("acked-%03d", i)))
		off, err := rb.Produce("acks", 0, set)
		if err != nil {
			t.Fatalf("produce %d: %v", i, err)
		}
		end := off + int64(set.Len())
		if hw := readCheckpoint(t, l.dir); hw < end {
			t.Fatalf("produce %d acked through %d, leader checkpoint reads %d", i, end, hw)
		}
	}
}

// BenchmarkLogSetLimit is one high-watermark advance: the in-memory limit
// update plus the checkpoint write. Steady state starts after the first
// persist opens the file.
func BenchmarkLogSetLimit(b *testing.B) {
	l, err := OpenLog(b.TempDir(), LogConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	l.SetLimit(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.SetLimit(int64(i) + 2)
	}
}
