package kafka

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Log is one topic partition on disk: a set of segment files of roughly
// equal size, each named by the logical offset of its first message (§V.B
// "simple storage"). Appends go to the last segment; a configurable flush
// policy (message count or elapsed time) controls when data becomes visible
// to consumers; reads locate the segment by binary search over the base
// offsets and return raw bytes straight from the file.
type Log struct {
	dir string

	mu       sync.Mutex
	segments []*segment // sorted by baseOffset; last is active
	cfg      LogConfig

	unflushedCount int
	lastFlush      time.Time
	flushedTo      int64 // bytes below this offset are durable (flushed)

	// limit caps consumer visibility below flushedTo; -1 disables the cap.
	// Replicated partitions set it to the high watermark so consumers never
	// see messages the ISR has not fully acked (which a failover could lose).
	limit int64

	// hwFile is hw.checkpoint, held open from the first persist of a limit
	// until SetLimit(-1) or Close; hwBuf is the fixed-width record written
	// into it (see persistLimitLocked).
	hwPath string
	hwFile *os.File
	hwBuf  [hwCheckpointWidth]byte

	// watch is closed and replaced whenever the consumer-visible end (or the
	// durable end, for replica fetches) advances, waking long-poll fetches
	// parked in WaitForData. Visibility — not the append — is the wake point,
	// because consumers only see flushed data.
	watch chan struct{}
}

type segment struct {
	baseOffset int64
	f          *os.File
	size       int64
	mtime      time.Time
}

// LogConfig tunes a partition log.
type LogConfig struct {
	SegmentBytes  int64         // roll size; default 64 MB
	FlushMessages int           // flush after N appends; default 1 (every append)
	FlushInterval time.Duration // or after this much time; default 0 (disabled)
	Retention     time.Duration // segment max age; 0 = keep forever
}

func (c *LogConfig) withDefaults() {
	if c.SegmentBytes == 0 {
		c.SegmentBytes = 64 << 20
	}
	if c.FlushMessages == 0 {
		c.FlushMessages = 1
	}
}

func segmentName(base int64) string { return fmt.Sprintf("%020d.kafka", base) }

// hwCheckpointName holds the persisted visibility limit (the partition high
// watermark). Without it a restarted replica comes back with limit -1, its
// divergence truncate becomes a no-op, and an unacked on-disk tail from the
// old epoch survives into the new one.
const hwCheckpointName = "hw.checkpoint"

// hwCheckpointWidth is the checkpoint record: 20 zero-padded decimal digits
// (any non-negative int64) and a newline. A fixed width lets each advance
// overwrite the record in place, and a lower value never leaves stale
// trailing digits behind.
const hwCheckpointWidth = 21

// OpenLog opens (creating if needed) the partition log in dir, recovering
// the active segment by truncating any torn tail.
func OpenLog(dir string, cfg LogConfig) (*Log, error) {
	cfg.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{dir: dir, cfg: cfg, lastFlush: time.Now(), limit: -1, watch: make(chan struct{}),
		hwPath: filepath.Join(dir, hwCheckpointName)}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var bases []int64
	for _, ent := range ents {
		if !strings.HasSuffix(ent.Name(), ".kafka") {
			continue
		}
		base, err := strconv.ParseInt(strings.TrimSuffix(ent.Name(), ".kafka"), 10, 64)
		if err != nil {
			continue
		}
		bases = append(bases, base)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	for i, base := range bases {
		f, err := os.OpenFile(filepath.Join(dir, segmentName(base)), os.O_RDWR, 0o644)
		if err != nil {
			return nil, err
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, err
		}
		size := st.Size()
		if i == len(bases)-1 {
			// Recover the active segment: keep only the valid prefix.
			data := make([]byte, size)
			if _, err := f.ReadAt(data, 0); err != nil && size > 0 {
				f.Close()
				return nil, err
			}
			valid := int64(validPrefix(data))
			if valid < size {
				if err := f.Truncate(valid); err != nil {
					f.Close()
					return nil, err
				}
				size = valid
			}
		}
		l.segments = append(l.segments, &segment{baseOffset: base, f: f, size: size, mtime: st.ModTime()})
	}
	if len(l.segments) == 0 {
		if err := l.rollLocked(0); err != nil {
			return nil, err
		}
	}
	l.flushedTo = l.endOffsetLocked()
	// Restore the persisted high watermark as the visibility limit, so a
	// replica that restarts mid-epoch still knows where acked data ends and
	// TruncateTo(Latest()) cuts back to it. A missing or unparseable
	// checkpoint leaves the limit off, matching the pre-replication behavior.
	// ParseInt accepts the zero padding, and also the unpadded record (no
	// newline) that earlier versions wrote.
	if data, err := os.ReadFile(l.hwPath); err == nil {
		if hw, perr := strconv.ParseInt(strings.TrimSpace(string(data)), 10, 64); perr == nil && hw >= 0 {
			l.limit = hw
		}
	}
	// Earlier versions wrote the checkpoint to a temp file and renamed it; a
	// crash between the two left this behind.
	_ = os.Remove(l.hwPath + ".tmp")
	return l, nil
}

func (l *Log) rollLocked(base int64) error {
	f, err := os.OpenFile(filepath.Join(l.dir, segmentName(base)), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	l.segments = append(l.segments, &segment{baseOffset: base, f: f, mtime: time.Now()})
	return nil
}

func (l *Log) active() *segment { return l.segments[len(l.segments)-1] }

func (l *Log) endOffsetLocked() int64 {
	a := l.active()
	return a.baseOffset + a.size
}

// Append writes the message set at the end of the log and returns the
// offset of its first byte. Data becomes consumer-visible per the flush
// policy ("a message is only exposed to the consumers after it is flushed").
func (l *Log) Append(set MessageSet) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	a := l.active()
	base := a.baseOffset + a.size
	if _, err := a.f.WriteAt(set.Bytes(), a.size); err != nil {
		return 0, err
	}
	a.size += int64(set.Len())
	a.mtime = time.Now()
	l.unflushedCount++
	if l.unflushedCount >= l.cfg.FlushMessages ||
		(l.cfg.FlushInterval > 0 && time.Since(l.lastFlush) >= l.cfg.FlushInterval) {
		if err := l.flushLocked(); err != nil {
			return 0, err
		}
	}
	if a.size >= l.cfg.SegmentBytes {
		if err := l.flushLocked(); err != nil {
			return 0, err
		}
		if err := l.rollLocked(a.baseOffset + a.size); err != nil {
			return 0, err
		}
	}
	return base, nil
}

func (l *Log) flushLocked() error {
	if err := l.active().f.Sync(); err != nil {
		return err
	}
	l.unflushedCount = 0
	l.lastFlush = time.Now()
	if end := l.endOffsetLocked(); end != l.flushedTo {
		l.flushedTo = end
		l.wakeLocked()
	}
	return nil
}

// wakeLocked wakes long-poll fetches; see WaitForData.
func (l *Log) wakeLocked() {
	close(l.watch)
	l.watch = make(chan struct{})
}

// visibleEndLocked is the consumer-visible end of the log: the flush point,
// further capped by the visibility limit when one is set.
func (l *Log) visibleEndLocked() int64 {
	end := l.flushedTo
	if l.limit >= 0 && l.limit < end {
		end = l.limit
	}
	return end
}

// SetLimit caps consumer visibility at limit (the partition high watermark);
// -1 removes the cap. Raising the visible end wakes parked long-poll fetches.
// The limit is checkpointed to disk so it survives restarts.
func (l *Log) SetLimit(limit int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if limit == l.limit {
		return
	}
	before := l.visibleEndLocked()
	l.limit = limit
	l.persistLimitLocked()
	if l.visibleEndLocked() > before {
		l.wakeLocked()
	}
}

// persistLimitLocked checkpoints the visibility limit with one positioned
// write of the fixed-width record over the previous one. The file stays open
// between advances, so an advance costs a single pwrite: no create, rename or
// close. A process kill cannot tear a single pwrite, so the file holds either
// the old or the new value. A stale (low) checkpoint is safe — the replica
// truncates further back and refetches from the leader — so write failures
// are deliberately ignored and the file is not fsynced.
func (l *Log) persistLimitLocked() {
	if l.limit < 0 {
		l.closeCheckpointLocked()
		_ = os.Remove(l.hwPath)
		return
	}
	if l.hwFile == nil {
		f, err := os.OpenFile(l.hwPath, os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return
		}
		l.hwFile = f
	}
	buf := &l.hwBuf
	buf[len(buf)-1] = '\n'
	for i, v := len(buf)-2, l.limit; i >= 0; i, v = i-1, v/10 {
		buf[i] = byte('0' + v%10)
	}
	_, _ = l.hwFile.WriteAt(buf[:], 0)
}

func (l *Log) closeCheckpointLocked() {
	if l.hwFile != nil {
		_ = l.hwFile.Close()
		l.hwFile = nil
	}
}

// FlushedEnd returns the offset one past the last durable byte, ignoring the
// visibility limit — the replica fetch bound (followers replicate durable
// bytes the high watermark has not yet covered).
func (l *Log) FlushedEnd() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushedTo
}

// WaitForData blocks until the consumer-visible end of the log moves past
// offset, wait elapses, or stop closes; it reports whether data is now
// readable at offset. This is the broker half of long-poll fetches: a
// caught-up consumer parks here instead of sleep-polling.
func (l *Log) WaitForData(offset int64, wait time.Duration, stop <-chan struct{}) bool {
	return l.waitForData(offset, wait, stop, false)
}

// WaitForDataUncapped is WaitForData against the durable end of the log,
// ignoring the visibility limit — the long-poll used by replica fetches,
// which must see bytes before the high watermark covers them.
func (l *Log) WaitForDataUncapped(offset int64, wait time.Duration, stop <-chan struct{}) bool {
	return l.waitForData(offset, wait, stop, true)
}

func (l *Log) waitForData(offset int64, wait time.Duration, stop <-chan struct{}, uncapped bool) bool {
	deadline := time.NewTimer(wait)
	defer deadline.Stop()
	for {
		l.mu.Lock()
		end := l.visibleEndLocked()
		if uncapped {
			end = l.flushedTo
		}
		visible := end > offset
		w := l.watch
		l.mu.Unlock()
		if visible {
			return true
		}
		select {
		case <-w:
			// the visible/durable end advanced; recheck against our offset.
		case <-deadline.C:
			return false
		case <-stop:
			return false
		}
	}
}

// AppendAt writes raw log bytes at exactly offset, which must equal the
// current end of the log (followers replay the leader's log byte-identically,
// so physical offsets — the message addresses — survive failover). The same
// flush and roll policy as Append applies.
func (l *Log) AppendAt(offset int64, raw []byte) error {
	if len(raw) == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	a := l.active()
	end := a.baseOffset + a.size
	if offset != end {
		return fmt.Errorf("%w: append at %d, log ends at %d", ErrOffsetOutOfRange, offset, end)
	}
	if _, err := a.f.WriteAt(raw, a.size); err != nil {
		return err
	}
	a.size += int64(len(raw))
	a.mtime = time.Now()
	l.unflushedCount++
	if l.unflushedCount >= l.cfg.FlushMessages ||
		(l.cfg.FlushInterval > 0 && time.Since(l.lastFlush) >= l.cfg.FlushInterval) {
		if err := l.flushLocked(); err != nil {
			return err
		}
	}
	if a.size >= l.cfg.SegmentBytes {
		if err := l.flushLocked(); err != nil {
			return err
		}
		if err := l.rollLocked(a.baseOffset + a.size); err != nil {
			return err
		}
	}
	return nil
}

// TruncateTo discards every byte at and beyond offset — the divergence repair
// a deposed leader runs before rejoining as a follower (its unreplicated tail
// was never high-watermark-acked and must not survive). offset below the
// earliest retained byte is an error; offset at or past the end is a no-op.
func (l *Log) TruncateTo(offset int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if offset >= l.endOffsetLocked() {
		return nil
	}
	if offset < l.segments[0].baseOffset {
		return fmt.Errorf("%w: truncate to %d, log starts at %d",
			ErrOffsetOutOfRange, offset, l.segments[0].baseOffset)
	}
	// Drop whole segments past the cut, keeping at least the one holding it.
	for len(l.segments) > 1 && l.segments[len(l.segments)-1].baseOffset >= offset {
		seg := l.segments[len(l.segments)-1]
		seg.f.Close()
		if err := os.Remove(filepath.Join(l.dir, segmentName(seg.baseOffset))); err != nil {
			return err
		}
		l.segments = l.segments[:len(l.segments)-1]
	}
	a := l.active()
	if keep := offset - a.baseOffset; keep < a.size {
		if err := a.f.Truncate(keep); err != nil {
			return err
		}
		a.size = keep
		a.mtime = time.Now()
	}
	l.unflushedCount = 0
	if end := l.endOffsetLocked(); l.flushedTo > end {
		l.flushedTo = end
	}
	return nil
}

// Flush forces durability and visibility of everything appended.
func (l *Log) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushLocked()
}

// MaybeFlushByTime applies the time-based flush policy (called by the
// broker's background flusher).
func (l *Log) MaybeFlushByTime() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cfg.FlushInterval > 0 && l.unflushedCount > 0 && time.Since(l.lastFlush) >= l.cfg.FlushInterval {
		return l.flushLocked()
	}
	return nil
}

// Earliest returns the smallest valid offset.
func (l *Log) Earliest() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.segments[0].baseOffset
}

// Latest returns the offset one past the last consumer-visible byte — the
// flush point, further capped by the visibility limit when one is set.
func (l *Log) Latest() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.visibleEndLocked()
}

// Read returns up to maxBytes of raw log starting at offset, never past the
// consumer-visible end and never crossing a segment boundary (the consumer
// simply fetches again). An empty result means caught-up.
func (l *Log) Read(offset int64, maxBytes int) ([]byte, error) {
	return l.read(offset, maxBytes, false)
}

// ReadUncapped is Read against the durable end of the log, ignoring the
// visibility limit — the replica fetch path, which must replicate bytes the
// high watermark has not yet covered.
func (l *Log) ReadUncapped(offset int64, maxBytes int) ([]byte, error) {
	return l.read(offset, maxBytes, true)
}

func (l *Log) read(offset int64, maxBytes int, uncapped bool) ([]byte, error) {
	l.mu.Lock()
	end := l.visibleEndLocked()
	if uncapped {
		end = l.flushedTo
	}
	if offset < l.segments[0].baseOffset || offset > end {
		l.mu.Unlock()
		return nil, fmt.Errorf("%w: offset %d, log covers [%d,%d]",
			ErrOffsetOutOfRange, offset, l.segments[0].baseOffset, end)
	}
	// Locate the segment: last one with baseOffset <= offset.
	i := sort.Search(len(l.segments), func(i int) bool { return l.segments[i].baseOffset > offset }) - 1
	seg := l.segments[i]
	pos := offset - seg.baseOffset
	limit := seg.size
	if segEnd := seg.baseOffset + seg.size; segEnd > end {
		limit = end - seg.baseOffset
	}
	n := int64(maxBytes)
	if n > limit-pos {
		n = limit - pos
	}
	f := seg.f
	l.mu.Unlock()
	if n <= 0 {
		return nil, nil
	}
	buf := make([]byte, n)
	if _, err := f.ReadAt(buf, pos); err != nil {
		return nil, err
	}
	return buf, nil
}

// SectionReader returns the segment file and in-file range covering a fetch,
// so transports can io.Copy straight from the page cache to the socket —
// the sendfile-style zero-copy path of §V.B (io.CopyN over an *os.File
// section lets the runtime use sendfile/splice on Linux).
func (l *Log) SectionReader(offset int64, maxBytes int) (*os.File, int64, int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	end := l.visibleEndLocked()
	if offset < l.segments[0].baseOffset || offset > end {
		return nil, 0, 0, fmt.Errorf("%w: offset %d", ErrOffsetOutOfRange, offset)
	}
	i := sort.Search(len(l.segments), func(i int) bool { return l.segments[i].baseOffset > offset }) - 1
	seg := l.segments[i]
	pos := offset - seg.baseOffset
	limit := seg.size
	if segEnd := seg.baseOffset + seg.size; segEnd > end {
		limit = end - seg.baseOffset
	}
	n := int64(maxBytes)
	if n > limit-pos {
		n = limit - pos
	}
	if n < 0 {
		n = 0
	}
	return seg.f, pos, n, nil
}

// CleanOld deletes whole segments older than the retention period — the
// time-based SLA retention policy of §V.B. The active segment is never
// deleted. Returns the number of segments removed.
func (l *Log) CleanOld(now time.Time) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cfg.Retention == 0 {
		return 0, nil
	}
	removed := 0
	for len(l.segments) > 1 {
		seg := l.segments[0]
		if now.Sub(seg.mtime) < l.cfg.Retention {
			break
		}
		seg.f.Close()
		if err := os.Remove(filepath.Join(l.dir, segmentName(seg.baseOffset))); err != nil {
			return removed, err
		}
		l.segments = l.segments[1:]
		removed++
	}
	return removed, nil
}

// Segments returns the current segment count (diagnostics).
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segments)
}

// Close flushes and closes all segment files and the checkpoint.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var firstErr error
	if err := l.flushLocked(); err != nil {
		firstErr = err
	}
	l.closeCheckpointLocked()
	for _, seg := range l.segments {
		if err := seg.f.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
