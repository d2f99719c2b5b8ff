package cpu

import (
	"errors"
	"reflect"
	"testing"

	"mac3d/internal/addr"
	"mac3d/internal/hmc"
	"mac3d/internal/sim"
	"mac3d/internal/trace"
)

// quietSettings is the number of leading fuzz bytes quietCase turns
// into node settings.
const quietSettings = 5

// quietCase decodes fuzz bytes into a node configuration and a request
// stream. The leading bytes pick a 1–8 deep LSQ, a device admitting
// 1–8 transactions, a 0–4 entry target buffer, a 2–8 entry ARQ with or
// without fill mode, and a 50–500 cycle watchdog. Then come five bytes
// per event: four decoded as coverageTrace does, and one that may turn
// the access into a scratchpad hit and stretch its gap up to 255.
func quietCase(data []byte) (RunConfig, *trace.Trace) {
	s := data[:quietSettings]
	cfg := DefaultRunConfig()
	cfg.Node.MaxOutstanding = 1 + int(s[0]%8)
	cfg.HMC.MaxInflight = 1 + int(s[1]%8)
	cfg.Node.TargetBufferDepth = int(s[2] % 5)
	cfg.MAC.ARQ.Entries = 2 + int(s[3]%7)
	cfg.MAC.ARQ.FillMode = s[3]&0x80 != 0
	cfg.Node.StallLimit = 50 + 450*sim.Cycle(s[4])/255
	cfg.Node.MaxCycles = 10_000_000

	tr := trace.NewTrace(coverageThreads)
	data = data[quietSettings:]
	for i := 0; i+5 <= len(data) && i < 5*coverageEvents; i += 5 {
		b := data[i : i+5]
		e := coverageDecode(b[:4])
		if b[4]&3 == 0 && e.Op != trace.Fence {
			e.Addr += addr.SPMWindow(int(e.Thread))
		}
		e.Gap |= b[4] &^ 15
		tr.Append(e)
	}
	return cfg, tr
}

// runQuiet replays tr through a node built as Run builds one, ticking
// every cycle when everyCycle is set.
func runQuiet(cfg RunConfig, tr *trace.Trace, everyCycle bool) (*Result, error) {
	dev, err := hmc.NewDevice(cfg.HMC)
	if err != nil {
		return nil, err
	}
	coal, err := cfg.NewCoalescer()
	if err != nil {
		return nil, err
	}
	n, err := NewNode(cfg.Node, coal, dev)
	if err != nil {
		return nil, err
	}
	n.everyCycle = everyCycle
	if err := n.Load(tr); err != nil {
		return nil, err
	}
	return n.Run()
}

// FuzzQuietSkip checks the quiet-cycle skip against a node that ticks
// every cycle: on any stream, with any of the settings quietCase
// draws, every frontend must end with an identical Result, or stall
// with an identical StallError.
func FuzzQuietSkip(f *testing.F) {
	join := func(settings []byte, evs ...[]byte) []byte {
		out := append([]byte(nil), settings...)
		for _, e := range evs {
			out = append(out, e...)
		}
		return out
	}
	ev := func(op trace.Op, thread uint8, a uint16, size uint8, extra byte) []byte {
		return append(coverageEvent(op, thread, a, size), extra)
	}
	// Two threads of loads and stores with long gaps, a scratchpad hit
	// and a fence.
	f.Add(join([]byte{7, 7, 0, 6, 255},
		ev(trace.Load, 0, 0x100, 8, 0xf1), ev(trace.Load, 1, 0x108, 8, 0x01),
		ev(trace.Store, 0, 0x2f8, 16, 0x00), ev(trace.Fence, 1, 0, 1, 0x81),
		ev(trace.Load, 1, 0x1000, 4, 0xc2), ev(trace.Atomic, 0, 0x10c, 8, 0x03)))
	// A one-deep LSQ and a 50-cycle watchdog: the second load waits
	// longer than the watchdog allows for the first, which fires.
	f.Add(join([]byte{0, 0, 1, 0, 0},
		ev(trace.Load, 0, 0x100, 8, 0x01), ev(trace.Load, 0, 0x4000, 8, 0x01)))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < quietSettings {
			return
		}
		cfg, tr := quietCase(data)
		for _, k := range Kinds() {
			cfg.Kind = k
			got, gotErr := runQuiet(cfg, tr, false)
			want, wantErr := runQuiet(cfg, tr, true)
			var gotStall, wantStall *StallError
			switch {
			case errors.As(gotErr, &gotStall) && errors.As(wantErr, &wantStall):
				if !reflect.DeepEqual(gotStall, wantStall) {
					t.Fatalf("%s: skipping stalls with\n%+v\nticking every cycle with\n%+v", k, gotStall, wantStall)
				}
			case gotErr != nil || wantErr != nil:
				if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
					t.Fatalf("%s: skipping returns %v, ticking every cycle %v", k, gotErr, wantErr)
				}
			case !reflect.DeepEqual(got, want):
				t.Fatalf("%s: skipping gives\n%+v\nticking every cycle gives\n%+v", k, got, want)
			}
		}
	})
}
