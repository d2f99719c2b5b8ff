package cpu

import (
	"testing"

	"mac3d/internal/trace"
)

// coverageThreads and coverageEvents bound one fuzzed request stream.
const (
	coverageThreads = 4
	coverageEvents  = 64
)

// coverageEvent encodes one event the way coverageTrace decodes it.
func coverageEvent(op trace.Op, thread uint8, a uint16, size uint8) []byte {
	code := map[trace.Op]byte{trace.Load: 0, trace.Store: 4, trace.Atomic: 6, trace.Fence: 7}[op]
	return []byte{code | thread<<3, size - 1, byte(a), byte(a >> 8)}
}

// coverageTrace decodes fuzz bytes into a short multi-thread request
// stream, four bytes per event. The first byte picks the kind (loads,
// stores, atomics and fences in the ratio 4:2:1:1) and the thread, the
// second the size (1–16) and the gap, the last two an address in a 64KB
// footprint. Addresses are unaligned, so FLIT-, line- and row-crossing
// accesses are all common.
func coverageTrace(data []byte) *trace.Trace {
	tr := trace.NewTrace(coverageThreads)
	for i := 0; i+4 <= len(data) && i < 4*coverageEvents; i += 4 {
		tr.Append(coverageDecode(data[i : i+4]))
	}
	return tr
}

// coverageDecode decodes one four-byte event of coverageTrace.
func coverageDecode(b []byte) trace.Event {
	e := trace.Event{Thread: uint16(b[0]>>3) % coverageThreads, Op: trace.Load, Gap: b[1] >> 4}
	switch b[0] & 7 {
	case 4, 5:
		e.Op = trace.Store
	case 6:
		e.Op = trace.Atomic
	case 7:
		e.Op = trace.Fence
	}
	if e.Op != trace.Fence {
		e.Addr = uint64(b[2]) | uint64(b[3])<<8
		e.Size = 1 + b[1]&15
	}
	return e
}

// FuzzFrontendCoverage runs a short request stream through every
// coalescer design on one node with the audit ledger on. Whatever the
// mix of sizes, unaligned addresses, atomics, fences and threads, each
// request must retire exactly once with every byte of its FLIT span
// delivered.
func FuzzFrontendCoverage(f *testing.F) {
	join := func(evs ...[]byte) []byte {
		var out []byte
		for _, e := range evs {
			out = append(out, e...)
		}
		return out
	}
	// An atomic crossing a FLIT boundary.
	f.Add(coverageEvent(trace.Atomic, 0, 0x10c, 8))
	// A load and a store crossing FLIT boundaries.
	f.Add(join(coverageEvent(trace.Load, 0, 0x20c, 8), coverageEvent(trace.Store, 1, 0x30c, 8)))
	// A load crossing a 64B line end, behind a load that opens the
	// line, and one crossing the end of a line nothing has opened.
	f.Add(join(coverageEvent(trace.Load, 0, 0x100, 8), coverageEvent(trace.Load, 0, 0x13c, 8),
		coverageEvent(trace.Load, 1, 0x23c, 8)))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := coverageTrace(data)
		for _, k := range Kinds() {
			cfg := DefaultRunConfig()
			cfg.Kind = k
			cfg.Audit = true
			res, err := Run(cfg, tr)
			if err != nil {
				t.Fatalf("%s: %v", k, err)
			}
			if !res.Audit.Ok() {
				t.Fatalf("%s: %s\n%s", k, res.Audit, res.Audit.Diff())
			}
		}
	})
}
