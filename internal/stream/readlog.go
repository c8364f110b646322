package stream

import (
	"math"
	"slices"

	"bayesperf/internal/measure"
	"bayesperf/internal/timeseries"
	"bayesperf/internal/uarch"
)

// maxSets bounds the reading log's event-set table, so that a handle fits
// in one byte.
const maxSets = 256

// segAlign is the granule of a log segment's length, in values: 8 KiB, the
// page size by which the Go heap rounds up every large allocation.
const segAlign = 1024

// readingLog is the append-only record of the stream's readings from which
// Finish builds the naive baseline (Result.NaiveRaw). Each interval logs
// its sample's values in the sample's event order, a non-finite one as NaN,
// and a one-byte handle to its event set. Each chunk of chunkLen intervals
// starts with a head: the values held when it opened, so that Finish
// replays every chunk on its own, and its intervals' handles, eight to a
// word as the bits of a float64 (math.Float64bits). Heads and values go
// into fixed-size segments: growth never copies, and only the segment
// being written is partly filled.
type readingLog struct {
	ne int

	// sets are the event sets logged so far, by handle. Set 0 lists every
	// catalog event in ID order. An interval whose set the table cannot
	// take (it is full, or the set has more readings than the catalog has
	// events) is logged against set 0 instead: one value per event, NaN
	// for the events it did not read.
	sets [][]uarch.EventID
	// next[h] is the set that followed set h last time, and prev the set
	// logged last. A scheduler cycles its groups and a sampler hands each
	// group's intervals the same set, so one comparison nearly always
	// finds the handle.
	next []uint8
	prev uint8

	// segs hold the heads and values, segLen each, written up to (seg,
	// off). The segment after seg, if there is one, is the spare. No head
	// or interval's readings straddle two segments. chunks holds where
	// each chunk's head starts, and handles views the open chunk's.
	segs     [][]float64
	seg, off int
	segLen   int
	chunks   []logPos
	handles  []float64

	// held is each event's latest finite reading, 0 before the first;
	// first and firstVal are the interval (-1: none yet) and held value at
	// the end of that interval of each event's first finite reading.
	held     []float64
	first    []int
	firstVal []float64
}

// logPos is a position in the log's segments.
type logPos struct{ seg, off int }

// newReadingLog returns an empty log over ne catalog events. A segment
// holds at least one chunk's largest possible entries: its head and ne
// readings per interval.
func newReadingLog(ne int) readingLog {
	dense := make([]uarch.EventID, ne)
	for id := range dense {
		dense[id] = uarch.EventID(id)
	}
	segLen := (headLen(ne) + chunkLen*ne + segAlign - 1) / segAlign * segAlign
	l := readingLog{
		ne:       ne,
		sets:     [][]uarch.EventID{dense},
		next:     make([]uint8, maxSets),
		segs:     [][]float64{make([]float64, segLen)},
		segLen:   segLen,
		held:     make([]float64, ne),
		first:    make([]int, ne),
		firstVal: make([]float64, ne),
	}
	for id := range l.first {
		l.first[id] = -1
	}
	return l
}

// headLen is the length of a chunk's head over ne events.
func headLen(ne int) int { return ne + chunkLen/8 }

// openChunk starts the next chunk of the log with its head. It is called
// when the output chunk opens, so any allocation happens there and never
// inside an epoch: when the segment being written cannot take a whole
// chunk's entries it allocates the spare, and then no interval of the
// chunk allocates, since a chunk moves to the next segment at most once
// and a segment takes a whole chunk.
func (l *readingLog) openChunk() {
	if l.seg == len(l.segs)-1 && l.off+headLen(l.ne)+chunkLen*l.ne > l.segLen {
		l.segs = append(l.segs, make([]float64, l.segLen))
	}
	l.chunks = append(l.chunks, logPos{l.seg, l.off})
	var head []float64
	head, l.seg, l.off = l.take(l.seg, l.off, headLen(l.ne))
	copy(head, l.held)
	l.handles = head[l.ne:]
}

// take returns the n values of the entry at (seg, off), which starts the
// next segment when it does not fit in this one, and the position after
// it. Logging and replay step through the segments by this one rule.
func (l *readingLog) take(seg, off, n int) ([]float64, int, int) {
	if off+n > l.segLen {
		seg, off = seg+1, 0
	}
	return l.segs[seg][off : off+n], seg, off + n
}

// add logs interval t's sample, the last interval of the open chunk, and
// returns how many of its readings are not finite, with the index of the
// first (-1 if none).
//
//bayesperf:hotpath
func (l *readingLog) add(t int, s measure.IntervalSample) (bad, firstBad int) {
	h, dense := l.handle(s.Events)
	i := t % chunkLen
	w := &l.handles[i/8]
	*w = math.Float64frombits(math.Float64bits(*w) | uint64(h)<<(8*(i%8)))
	var vals []float64
	vals, l.seg, l.off = l.take(l.seg, l.off, len(l.sets[h]))
	if dense {
		for i := range vals {
			vals[i] = math.NaN()
		}
	}
	firstBad = -1
	for i, id := range s.Events {
		v := s.Values[i]
		if finite(v) {
			l.held[id] = v
			if f := l.first[id]; f < 0 || f == t {
				l.first[id], l.firstVal[id] = t, v
			}
		} else {
			if firstBad < 0 {
				firstBad = i
			}
			bad++
			v = math.NaN()
		}
		if !dense {
			vals[i] = v
		} else if !math.IsNaN(v) {
			vals[id] = v
		}
	}
	return bad, firstBad
}

// handle returns the handle of event set ev, and whether ev is logged
// against set 0 in its place.
func (l *readingLog) handle(ev []uarch.EventID) (h uint8, dense bool) {
	h = l.next[l.prev]
	if !slices.Equal(l.sets[h], ev) {
		h, dense = l.find(ev)
		l.next[l.prev] = h
	}
	l.prev = h
	return h, dense
}

// find looks event set ev up in the table, adding it while there is room.
func (l *readingLog) find(ev []uarch.EventID) (h uint8, dense bool) {
	for h, set := range l.sets {
		if slices.Equal(set, ev) {
			return uint8(h), false
		}
	}
	if len(l.sets) == maxSets || len(ev) > l.ne {
		return 0, true
	}
	l.sets = append(l.sets, slices.Clone(ev))
	return uint8(len(l.sets) - 1), false
}

// heldRun is one event's value held since interval from, during a replay.
type heldRun struct {
	v    float64
	from int
}

// replay fills chunk ci's intervals [t0, t1) of every naive series by
// sample and hold: an event holds its last finite reading, and before its
// first it holds that first reading (0 if it is never read). It fills each
// event run by run, between its readings; run is the calling goroutine's
// scratch, one per event.
//
//bayesperf:hotpath
func (l *readingLog) replay(ci, t0, t1 int, naive []timeseries.Series, run []heldRun) {
	at := l.chunks[ci]
	head, seg, off := l.take(at.seg, at.off, headLen(l.ne))
	for id := range run {
		v := head[id]
		if f := l.first[id]; f < 0 || f >= t0 {
			v = l.firstVal[id] // not read before the chunk: the first-reading prefix
		}
		run[id] = heldRun{v: v, from: t0}
	}
	sets := head[l.ne:]
	for t := t0; t < t1; t++ {
		i := t - t0
		set := l.sets[uint8(math.Float64bits(sets[i/8])>>(8*(i%8)))]
		var vals []float64
		vals, seg, off = l.take(seg, off, len(set))
		for i, id := range set {
			v := vals[i]
			if math.IsNaN(v) {
				continue
			}
			r := &run[id]
			fill(naive[id][r.from:t], r.v)
			r.v, r.from = v, t
		}
	}
	for id, r := range run {
		fill(naive[id][r.from:t1], r.v)
	}
}

// fill sets every value of s to v.
func fill(s []float64, v float64) {
	for i := range s {
		s[i] = v
	}
}
