package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Binary trace format:
//
//	magic   "MACT" (4 bytes)
//	version u8 (currently 1)
//	records until end of stream, each:
//	        op u8, size u8, core u8, gap u8, thread u16 LE, addr uvarint
//
// The format streams: Writer emits records as they arrive and patches
// nothing, so there is no thread or record count up front. Each record
// carries its thread; readers rebuild the per-thread streams.

const (
	magic   = "MACT"
	version = 1
)

// ErrBadFormat reports a corrupt or foreign trace file.
var ErrBadFormat = errors.New("trace: bad file format")

// Writer streams events to an underlying io.Writer in binary format.
type Writer struct {
	w       *bufio.Writer
	started bool
	count   uint64
}

// NewWriter returns a Writer targeting w. Close (Flush) must be called
// to ensure all buffered records reach w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16)}
}

func (w *Writer) writeHeader() error {
	if _, err := w.w.WriteString(magic); err != nil {
		return err
	}
	return w.w.WriteByte(version)
}

// Write appends one event record.
func (w *Writer) Write(e Event) error {
	if !w.started {
		if err := w.writeHeader(); err != nil {
			return err
		}
		w.started = true
	}
	var buf [16]byte
	buf[0] = byte(e.Op)
	buf[1] = e.Size
	buf[2] = e.Core
	buf[3] = e.Gap
	binary.LittleEndian.PutUint16(buf[4:6], e.Thread)
	n := binary.PutUvarint(buf[6:], e.Addr)
	if _, err := w.w.Write(buf[:6+n]); err != nil {
		return err
	}
	w.count++
	return nil
}

// WriteTrace writes every event of t, thread by thread.
func (w *Writer) WriteTrace(t *Trace) error {
	for _, th := range t.Threads {
		for _, e := range th {
			if err := w.Write(e); err != nil {
				return err
			}
		}
	}
	return nil
}

// Count returns the number of records written so far.
func (w *Writer) Count() uint64 { return w.count }

// Flush drains the internal buffer to the underlying writer.
func (w *Writer) Flush() error {
	if !w.started {
		if err := w.writeHeader(); err != nil {
			return err
		}
		w.started = true
	}
	return w.w.Flush()
}

// Reader streams events from a binary trace file.
type Reader struct {
	r       *bufio.Reader
	started bool
	// fixed holds a record's fixed-width head; kept here rather than
	// on the stack, where io.ReadFull would move it to the heap on
	// every record.
	fixed [6]byte
}

// NewReader returns a Reader consuming r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 1<<16)}
}

func (r *Reader) readHeader() error {
	var hdr [5]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		return fmt.Errorf("%w: short header: %v", ErrBadFormat, err)
	}
	if string(hdr[:4]) != magic || hdr[4] != version {
		return fmt.Errorf("%w: magic %q version %d", ErrBadFormat, hdr[:4], hdr[4])
	}
	return nil
}

// Read returns the next event, or io.EOF at end of stream.
func (r *Reader) Read() (Event, error) {
	if !r.started {
		if err := r.readHeader(); err != nil {
			return Event{}, err
		}
		r.started = true
	}
	fixed := &r.fixed
	if _, err := io.ReadFull(r.r, fixed[:1]); err != nil {
		if err == io.EOF {
			return Event{}, io.EOF
		}
		return Event{}, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if _, err := io.ReadFull(r.r, fixed[1:]); err != nil {
		return Event{}, fmt.Errorf("%w: truncated record: %v", ErrBadFormat, err)
	}
	addr, err := binary.ReadUvarint(r.r)
	if err != nil {
		return Event{}, fmt.Errorf("%w: truncated address: %v", ErrBadFormat, err)
	}
	e := Event{
		Op:     Op(fixed[0]),
		Size:   fixed[1],
		Core:   fixed[2],
		Gap:    fixed[3],
		Thread: binary.LittleEndian.Uint16(fixed[4:6]),
		Addr:   addr,
	}
	if !e.Op.Valid() {
		return Event{}, fmt.Errorf("%w: invalid op %d", ErrBadFormat, fixed[0])
	}
	return e, nil
}

// ReadTrace consumes the whole stream into an in-memory Trace.
func (r *Reader) ReadTrace() (*Trace, error) {
	t := NewTrace(0)
	for {
		e, err := r.Read()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, err
		}
		t.Append(e)
	}
}

// FormatText renders one event in the human-readable text form,
// e.g. "LD t3 c1 0x00001a40 8 g12".
func FormatText(e Event) string {
	return fmt.Sprintf("%s t%d c%d 0x%012x %d g%d",
		e.Op, e.Thread, e.Core, e.Addr, e.Size, e.Gap)
}

// ParseText parses the FormatText representation.
func ParseText(s string) (Event, error) {
	f := strings.Fields(s)
	if len(f) != 6 {
		return Event{}, fmt.Errorf("trace: want 6 fields, got %d in %q", len(f), s)
	}
	var e Event
	switch f[0] {
	case "LD":
		e.Op = Load
	case "ST":
		e.Op = Store
	case "FENCE":
		e.Op = Fence
	case "AMO":
		e.Op = Atomic
	default:
		return Event{}, fmt.Errorf("trace: unknown op %q", f[0])
	}
	th, err := strconv.ParseUint(strings.TrimPrefix(f[1], "t"), 10, 16)
	if err != nil {
		return Event{}, fmt.Errorf("trace: bad thread %q: %v", f[1], err)
	}
	core, err := strconv.ParseUint(strings.TrimPrefix(f[2], "c"), 10, 8)
	if err != nil {
		return Event{}, fmt.Errorf("trace: bad core %q: %v", f[2], err)
	}
	a, err := strconv.ParseUint(strings.TrimPrefix(f[3], "0x"), 16, 64)
	if err != nil {
		return Event{}, fmt.Errorf("trace: bad addr %q: %v", f[3], err)
	}
	sz, err := strconv.ParseUint(f[4], 10, 8)
	if err != nil {
		return Event{}, fmt.Errorf("trace: bad size %q: %v", f[4], err)
	}
	gap, err := strconv.ParseUint(strings.TrimPrefix(f[5], "g"), 10, 8)
	if err != nil {
		return Event{}, fmt.Errorf("trace: bad gap %q: %v", f[5], err)
	}
	e.Thread, e.Core, e.Addr, e.Size, e.Gap = uint16(th), uint8(core), a, uint8(sz), uint8(gap)
	return e, nil
}
