// Package ingestlog is the durable ingestion substrate of the serving
// layer: an append-only, segment-per-partition on-disk log with
// write-ahead semantics. Every tweet the server accepts is appended to
// the partition owned by hash(userID) — the same pure function the serve
// shards route with (PartitionFor) — before it is enqueued for
// processing, so a crash loses at most the records the filesystem had
// not yet committed, never a record the pipeline already applied.
//
// On-disk layout:
//
//	dir/
//	  log.json              manifest pinning {version, partitions}
//	  p000/seg-0000000000000000.rhl
//	  p000/seg-00000000000051c4.rhl   (base offset in hex)
//	  p001/...
//
// Each segment starts with a 16-byte header (magic "RHIL", version,
// partition, base offset) followed by length-prefixed records framed
// exactly like the userstate/checkpoint encoding:
//
//	uint32 length | payload | uint64 FNV-1a checksum of the payload
//
// Offsets are dense per-partition record indexes (the first record ever
// appended to a partition is offset 0). Segments roll at a size
// threshold; the fsync policy is configurable (per-record, interval with
// an unsynced-bytes backpressure bound, or off). Opening an existing
// directory recovers each partition by scanning its tail segment and
// truncating the first torn frame — committed records are never dropped,
// a torn final record always is.
package ingestlog

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// FsyncPolicy selects when appended records are forced to stable storage.
type FsyncPolicy int

const (
	// FsyncOff never fsyncs; durability is whatever the page cache gives
	// (a clean process exit loses nothing, a machine crash may).
	FsyncOff FsyncPolicy = iota
	// FsyncInterval fsyncs dirty partitions on a timer. Appends between
	// ticks are bounded by MaxUnsynced; past it Append returns
	// ErrBackpressure so the server sheds load instead of buying unbounded
	// loss windows.
	FsyncInterval
	// FsyncAlways fsyncs after every record (WAL-strict, slowest).
	FsyncAlways
)

// String implements flag-friendly naming.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncOff:
		return "off"
	case FsyncInterval:
		return "interval"
	case FsyncAlways:
		return "always"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", int(p))
}

// ParseFsyncPolicy parses the -fsync flag values.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "off":
		return FsyncOff, nil
	case "interval":
		return FsyncInterval, nil
	case "always":
		return FsyncAlways, nil
	}
	return 0, fmt.Errorf("ingestlog: unknown fsync policy %q (want off, interval, always)", s)
}

// ErrBackpressure is returned by Append when the log has stalled: the
// unsynced byte budget is exhausted (FsyncInterval) and accepting the
// record would widen the loss window past what the operator configured.
// The serving layer maps it to HTTP 429.
var ErrBackpressure = errors.New("ingestlog: append backpressure (unsynced bytes over budget)")

// Options configures a Log.
type Options struct {
	// Dir is the log root (created if needed).
	Dir string
	// Partitions is the partition count; it must equal the serve shard
	// count so hash(userID) affinity lines up (default 4). Opening an
	// existing directory with a different count is rejected.
	Partitions int
	// SegmentBytes rolls a segment once its size crosses the threshold
	// (default 64 MiB).
	SegmentBytes int64
	// Fsync is the durability policy (default FsyncInterval).
	Fsync FsyncPolicy
	// FsyncEvery is the FsyncInterval tick (default 100ms).
	FsyncEvery time.Duration
	// MaxUnsynced bounds the bytes a partition may hold ahead of its last
	// fsync under FsyncInterval before Append sheds load with
	// ErrBackpressure (default 32 MiB; <0 disables the bound).
	MaxUnsynced int64
}

func (o Options) withDefaults() Options {
	if o.Partitions <= 0 {
		o.Partitions = 4
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.FsyncEvery <= 0 {
		o.FsyncEvery = 100 * time.Millisecond
	}
	if o.MaxUnsynced == 0 {
		o.MaxUnsynced = 32 << 20
	}
	return o
}

// manifest is the log.json payload pinning the directory's shape.
type manifest struct {
	Version    int `json:"version"`
	Partitions int `json:"partitions"`
}

const (
	manifestName    = "log.json"
	manifestVersion = 1
)

// PartitionFor returns the partition a user's records are appended to:
// FNV-1a over the user ID, modulo the partition count. It is the same
// pure function the serving layer routes shards with, so partition i
// holds exactly the tweets shard i processes.
func PartitionFor(userID string, partitions int) int {
	h := fnv.New32a()
	h.Write([]byte(userID))
	return int(h.Sum32() % uint32(partitions))
}

// partition is one append stream: a directory of segments with an active
// tail segment. All fields are guarded by mu.
type partition struct {
	mu       sync.Mutex
	id       int
	dir      string
	seg      *segmentWriter // active tail segment
	next     int64          // next offset to assign
	segments int            // segment file count, tail included
	bytes    int64          // total bytes across sealed segments + tail
	unsynced int64          // bytes appended since the last fsync
	dirty    atomic.Bool    // needs an interval fsync

	// Activity since Open, reported by Stats.
	appends       int64 // records appended
	appendedBytes int64 // bytes appended, framing included
	fsyncs        int64 // successful fsyncs
	stalls        int64 // appends shed with ErrBackpressure
}

// Log is the partitioned append log. Append is safe for concurrent use;
// each partition serializes its own writers.
type Log struct {
	opts  Options
	parts []*partition

	closeOnce sync.Once
	closed    chan struct{}
	syncWG    sync.WaitGroup
}

// Open creates or recovers a log directory. Recovery scans each
// partition's tail segment, truncates the first torn frame, and resumes
// offsets from the last committed record.
func Open(opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("ingestlog: %w", err)
	}
	mpath := filepath.Join(opts.Dir, manifestName)
	if blob, err := os.ReadFile(mpath); err == nil {
		var m manifest
		if err := json.Unmarshal(blob, &m); err != nil {
			return nil, fmt.Errorf("ingestlog: corrupt manifest %s: %w", mpath, err)
		}
		if m.Version != manifestVersion {
			return nil, fmt.Errorf("ingestlog: unsupported log version %d", m.Version)
		}
		if m.Partitions != opts.Partitions {
			return nil, fmt.Errorf("ingestlog: log has %d partitions, opened with %d (user affinity would break)",
				m.Partitions, opts.Partitions)
		}
	} else if os.IsNotExist(err) {
		blob, _ := json.Marshal(manifest{Version: manifestVersion, Partitions: opts.Partitions})
		if err := os.WriteFile(mpath, append(blob, '\n'), 0o644); err != nil {
			return nil, fmt.Errorf("ingestlog: write manifest: %w", err)
		}
	} else {
		return nil, fmt.Errorf("ingestlog: %w", err)
	}

	l := &Log{opts: opts, closed: make(chan struct{})}
	for i := 0; i < opts.Partitions; i++ {
		p, err := openPartition(opts, i)
		if err != nil {
			l.Close()
			return nil, err
		}
		l.parts = append(l.parts, p)
	}
	if opts.Fsync == FsyncInterval {
		l.syncWG.Add(1)
		go l.syncLoop()
	}
	return l, nil
}

func partDir(root string, id int) string { return filepath.Join(root, fmt.Sprintf("p%03d", id)) }

// openPartition lists the partition's segments, recovers the tail, and
// positions the writer after the last committed record.
func openPartition(opts Options, id int) (*partition, error) {
	dir := partDir(opts.Dir, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ingestlog: %w", err)
	}
	names, err := segmentFiles(dir)
	if err != nil {
		return nil, err
	}
	p := &partition{id: id, dir: dir}
	if len(names) == 0 {
		seg, err := createSegment(dir, id, 0)
		if err != nil {
			return nil, err
		}
		p.seg, p.segments, p.bytes = seg, 1, seg.size
		return p, nil
	}
	// Sealed segments contribute size only; the tail is scanned for torn
	// frames and reopened for append.
	for _, name := range names[:len(names)-1] {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("ingestlog: %w", err)
		}
		p.bytes += fi.Size()
	}
	tail := filepath.Join(dir, names[len(names)-1])
	seg, err := recoverSegment(tail, id)
	if err != nil {
		return nil, err
	}
	if seg == nil {
		// The tail's header itself was torn: the file never held a
		// committed record, so dropping it loses nothing. The previous
		// segment (if any) is complete — recover it as the new tail.
		if err := os.Remove(tail); err != nil {
			return nil, fmt.Errorf("ingestlog: drop torn segment: %w", err)
		}
		names = names[:len(names)-1]
		if len(names) == 0 {
			seg, err = createSegment(dir, id, 0)
			if err != nil {
				return nil, err
			}
			p.seg, p.segments, p.bytes = seg, 1, seg.size
			return p, nil
		}
		prev := filepath.Join(dir, names[len(names)-1])
		fi, err := os.Stat(prev)
		if err != nil {
			return nil, fmt.Errorf("ingestlog: %w", err)
		}
		p.bytes -= fi.Size()
		if seg, err = recoverSegment(prev, id); err != nil {
			return nil, err
		}
		if seg == nil {
			return nil, fmt.Errorf("ingestlog: partition %d: segment %s has a torn header below the tail", id, prev)
		}
	}
	p.seg = seg
	p.segments = len(names)
	p.bytes += seg.size
	p.next = seg.base + seg.records
	return p, nil
}

// Partitions returns the partition count.
func (l *Log) Partitions() int { return len(l.parts) }

// Dir returns the log root directory.
func (l *Log) Dir() string { return l.opts.Dir }

// Fsync returns the configured durability policy.
func (l *Log) Fsync() FsyncPolicy { return l.opts.Fsync }

// Append writes one record to the partition and returns its offset.
// The record is on disk (page cache, or stable storage under
// FsyncAlways) before Append returns; the caller enqueues for
// processing only after that, which is what makes the log a WAL.
func (l *Log) Append(partition int, payload []byte) (int64, error) {
	p := l.parts[partition]
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.seg == nil {
		return 0, fmt.Errorf("ingestlog: partition %d is closed", partition)
	}
	if l.opts.Fsync == FsyncInterval && l.opts.MaxUnsynced > 0 && p.unsynced >= l.opts.MaxUnsynced {
		p.stalls++
		return 0, ErrBackpressure
	}
	if p.seg.size >= l.opts.SegmentBytes {
		if err := l.rollLocked(p); err != nil {
			return 0, err
		}
	}
	n, err := p.seg.append(payload)
	if err != nil {
		return 0, fmt.Errorf("ingestlog: partition %d: %w", partition, err)
	}
	off := p.next
	p.next++
	p.bytes += int64(n)
	p.appends++
	p.appendedBytes += int64(n)
	switch l.opts.Fsync {
	case FsyncAlways:
		//redvet:ignore lockorder FsyncAlways is the WAL-strict contract: the record is not durable until synced, so the partition stripe stays pinned across the fsync by design
		if err := p.seg.sync(); err != nil {
			return 0, fmt.Errorf("ingestlog: partition %d: %w", partition, err)
		}
		p.fsyncs++
	case FsyncInterval:
		p.unsynced += int64(n)
		p.dirty.Store(true)
	}
	return off, nil
}

// rollLocked seals the active segment and opens the next one. Called
// with p.mu held.
func (l *Log) rollLocked(p *partition) error {
	if err := p.seg.seal(); err != nil {
		return fmt.Errorf("ingestlog: partition %d: seal: %w", p.id, err)
	}
	seg, err := createSegment(p.dir, p.id, p.next)
	if err != nil {
		return err
	}
	p.seg = seg
	p.segments++
	p.bytes += seg.size
	p.unsynced = 0
	return nil
}

// syncLoop services FsyncInterval: every tick, dirty partitions are
// fsynced and their unsynced budget reset.
func (l *Log) syncLoop() {
	defer l.syncWG.Done()
	t := time.NewTicker(l.opts.FsyncEvery)
	defer t.Stop()
	for {
		select {
		case <-l.closed:
			return
		case <-t.C:
			l.SyncAll()
		}
	}
}

// SyncAll fsyncs every dirty partition immediately and resets the
// backpressure budgets. Safe to call concurrently with Append.
func (l *Log) SyncAll() {
	for _, p := range l.parts {
		if !p.dirty.Swap(false) {
			continue
		}
		p.mu.Lock()
		if p.seg != nil {
			//redvet:ignore lockorder interval flush must exclude Append while the dirty pages sync or the unsynced budget double-counts; one partition at a time keeps the stall bounded
			if err := p.seg.sync(); err == nil {
				p.fsyncs++
			}
			p.unsynced = 0
		}
		p.mu.Unlock()
	}
}

// PartitionStats is one partition's entry in Stats.
type PartitionStats struct {
	Partition int   `json:"partition"`
	Segments  int   `json:"segments"`
	Bytes     int64 `json:"bytes"`
	// Appended is the last committed offset (-1 when empty).
	Appended int64 `json:"appended"`
	// Unsynced is the byte count ahead of the last fsync (FsyncInterval).
	Unsynced int64 `json:"unsynced"`
	// Appends, AppendedBytes (framing included), Fsyncs and Stalls
	// (appends shed with ErrBackpressure) count activity since Open.
	Appends       int64 `json:"appends"`
	AppendedBytes int64 `json:"appended_bytes"`
	Fsyncs        int64 `json:"fsyncs"`
	Stalls        int64 `json:"stalls"`
}

// Stats reports per-partition segment counts, sizes, offsets, and the
// appends, bytes, fsyncs and stalls since Open.
func (l *Log) Stats() []PartitionStats {
	out := make([]PartitionStats, len(l.parts))
	for i, p := range l.parts {
		p.mu.Lock()
		out[i] = PartitionStats{
			Partition:     i,
			Segments:      p.segments,
			Bytes:         p.bytes,
			Appended:      p.next - 1,
			Unsynced:      p.unsynced,
			Appends:       p.appends,
			AppendedBytes: p.appendedBytes,
			Fsyncs:        p.fsyncs,
			Stalls:        p.stalls,
		}
		p.mu.Unlock()
	}
	return out
}

// Close seals the active segments, fsyncing them regardless of policy,
// and stops the interval syncer. Appends after Close fail.
func (l *Log) Close() error {
	var first error
	l.closeOnce.Do(func() {
		close(l.closed)
		l.syncWG.Wait()
		for _, p := range l.parts {
			p.mu.Lock()
			if p.seg != nil {
				if err := p.seg.seal(); err != nil && first == nil {
					first = err
				}
				p.seg = nil
			}
			p.mu.Unlock()
		}
	})
	return first
}

// segmentFiles lists segment file names in base-offset order.
func segmentFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("ingestlog: %w", err)
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && filepath.Ext(e.Name()) == segmentExt {
			names = append(names, e.Name())
		}
	}
	// Names embed the base offset as fixed-width hex, so lexical order is
	// offset order.
	sort.Strings(names)
	return names, nil
}

// fnv64a is the record checksum: an inline FNV-1a so the read hot path
// never allocates a hash.Hash.
func fnv64a(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

// frameSize is the on-disk size of a record with the given payload.
func frameSize(payloadLen int) int64 { return int64(4 + payloadLen + 8) }

// putFrame encodes one record frame into dst (which must have
// frameSize(len(payload)) capacity after position 0).
func putFrame(dst []byte, payload []byte) {
	binary.BigEndian.PutUint32(dst[:4], uint32(len(payload)))
	copy(dst[4:], payload)
	binary.BigEndian.PutUint64(dst[4+len(payload):], fnv64a(payload))
}
